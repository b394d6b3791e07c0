"""The secure-link stack does not load the hardware models.

The paper's FPGA design is modelled under ``repro.rtl``, ``repro.hdl``
and ``repro.fpga``; ``repro.security`` attacks those models and the
Table 1 modules of ``repro.analysis`` measure them.  None of them is
on the path of the facade, the CLI, the relay, the scenario harness or
the payload generator, so a fresh interpreter that imports those must
not have them in ``sys.modules``.  A package ``__init__`` that
re-exports a name eagerly is what would silently break this.
"""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Entry points of the link stack and of the payload generator.
STACK = ["repro.api", "repro.cli", "repro.relay", "repro.scenario",
         "repro.analysis.workloads"]

#: Packages and modules none of those may load.
HARDWARE_PACKAGES = ["repro.rtl", "repro.hdl", "repro.fpga", "repro.security"]
TABLE1_MODULES = ["repro.analysis.table1", "repro.analysis.throughput",
                  "repro.analysis.density", "repro.analysis.literature"]


def test_link_stack_loads_no_hardware_model():
    code = (
        "import sys\n"
        f"for name in {STACK!r}:\n"
        "    __import__(name)\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    bad = [name for name in result.stdout.split()
           if name in TABLE1_MODULES
           or ".".join(name.split(".")[:2]) in HARDWARE_PACKAGES]
    assert not bad, f"{len(bad)} hardware modules loaded: {bad}"
