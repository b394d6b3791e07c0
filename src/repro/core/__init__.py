"""The paper's primary contribution: the (M)HHEA cipher family.

Public surface:

* :class:`repro.core.mhhea.MhheaCipher` — the modified algorithm
  (location + data scrambling), the subject of the paper;
* :class:`repro.core.hhea.HheaCipher` — the unscrambled baseline the
  paper improves on;
* :class:`repro.core.key.Key` — key schedules (up to 16 pairs of small
  integers);
* :class:`repro.core.params.VectorParams` — hiding-vector geometry
  (the paper's configuration is :data:`repro.core.params.PAPER_PARAMS`);
* :mod:`repro.core.stream` — the packet container for link-level use
  (:func:`~repro.core.stream.encrypt_packet` /
  :func:`~repro.core.stream.decrypt_packet`, one packet per call;
  ordered batches are :meth:`repro.api.Codec.encrypt_packets`);
* :mod:`repro.core.fastpath` — the word-level fast engine and its
  cached compiled key schedules;
* :mod:`repro.core.engines` — the pluggable engine registry that makes
  ``"reference"``, ``"fast"`` and future backends interchangeable
  plugins (resolved once by :class:`repro.api.Codec`, validated eagerly
  with :class:`repro.core.errors.UnknownEngineError`).

Scaling beyond one core lives one layer up in :mod:`repro.parallel`
(sharded blobs, worker pools), which builds exclusively on this
package's public surface.
"""

from repro.core.engines import (
    Engine,
    get_engine,
    register_engine,
    registered_engines,
)
from repro.core.errors import (
    CipherFormatError,
    CoverExhaustedError,
    FlowError,
    HardwareModelError,
    ReproError,
    ReproKeyError,
    UnknownEngineError,
)
from repro.core.hhea import HheaCipher
from repro.core.key import Key, KeyPair, scramble_pair
from repro.core.mhhea import EncryptedMessage, MhheaCipher
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.core.trace import TraceRecorder, VectorTrace

__all__ = [
    "CipherFormatError",
    "CoverExhaustedError",
    "FlowError",
    "HardwareModelError",
    "ReproError",
    "ReproKeyError",
    "UnknownEngineError",
    "Engine",
    "get_engine",
    "register_engine",
    "registered_engines",
    "HheaCipher",
    "Key",
    "KeyPair",
    "scramble_pair",
    "EncryptedMessage",
    "MhheaCipher",
    "PAPER_PARAMS",
    "VectorParams",
    "TraceRecorder",
    "VectorTrace",
]
