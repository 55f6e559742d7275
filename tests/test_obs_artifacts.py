"""The machine identity block benchmark reports embed."""

from __future__ import annotations

import json
import platform

import numpy

from repro.obs import machine_fingerprint


def test_fingerprint_keys_and_values():
    fingerprint = machine_fingerprint()
    assert set(fingerprint) == {"cores", "usable_cores", "platform", "python", "numpy"}
    # Search outcomes depend on numpy's PCG64 words, so reports name numpy.
    assert fingerprint["numpy"] == numpy.__version__
    assert fingerprint["python"] == platform.python_version()
    assert 1 <= fingerprint["usable_cores"] <= fingerprint["cores"]
    assert json.loads(json.dumps(fingerprint)) == fingerprint
