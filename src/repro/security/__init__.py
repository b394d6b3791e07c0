"""Security analyses behind the paper's claims.

The paper makes three security arguments for the modified design; each
has an executable counterpart here:

* the serial design "caused a dependency between the throughput and the
  nature of the used secret key ... viewed by some as vulnerability" —
  :mod:`repro.security.timing_attack` recovers key spans from the serial
  model's Ready-pulse timing and shows the improved design leaks nothing
  per-output;
* "we have scrambled the location and the message to overcome constant
  chosen-plaintext attack" — :mod:`repro.security.chosen_plaintext`
  mounts that attack and measures its success against HHEA vs MHHEA;
* the hiding vector must be "scrambled as much as possible" —
  :mod:`repro.security.randomness` is a small statistical battery for
  LFSR and ciphertext streams, and :mod:`repro.security.avalanche`
  quantifies diffusion (including the honest negative result that a
  hiding cipher has no block-cipher-style avalanche).
"""

__all__ = []
