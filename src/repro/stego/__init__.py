"""Steganographic operation of the micro-architecture.

The paper's section VI: "if the random vector is loaded with multimedia
cover data, one can immediately realize that the micro-architecture is
used for hiding as well as scrambling data", and the same hardware "can
also be combined with the Steganographic Shuffler (STS) [SAEB04b] for
shuffled-type steganography".

* :mod:`repro.stego.cover` — cover-backed hiding-vector source, the
  embed/extract pair, capacity accounting and distortion metrics;
* :mod:`repro.stego.shuffler` — a keyed STS-style block shuffler layered
  on top of the vector stream.
"""

__all__ = []
