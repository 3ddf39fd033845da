"""scipy and networkx are optional oracles, imported only when used.

Each check runs in a fresh interpreter: ``sys.modules`` is process-global.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_oracle():
    _run("""
        import sys
        import repro.cli
        assert not {"scipy", "networkx"} & set(sys.modules)
    """)


def test_everything_works_without_oracles():
    _run("""
        import sys
        sys.modules["networkx"] = sys.modules["scipy"] = None  # not installed
        from repro.model import Instance, Job
        from repro.offline import migratory_optimum
        from repro.offline.flow import available_backends
        from repro.verify import certify
        from repro.verify.differential import differential_check

        assert "networkx" not in available_backends(), available_backends()
        inst = Instance([Job(0, 2, 3, id=i) for i in range(3)])
        assert migratory_optimum(inst, backend="auto") == 2
        assert certify(inst, 2, backend="auto").kind == "feasible"
        assert certify(inst, 1, backend="auto").kind == "infeasible"
        record = differential_check(inst, 2, use_lp=True)
        assert record.ok and record.lp_verdict is None, record
    """)
