"""End-to-end tests of the command line interface via subprocess."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stellar
import stellar.cli

FIXTURES = Path(stellar.__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "stellar.cli", *args],
        capture_output=True,
        text=True,
    )


def _run_json(*args):
    proc = _run(*args)
    return proc, json.loads(proc.stdout)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _plane_doc(rows) -> dict:
    """A plane document with the rows of a complex (k, 2s+1) array."""
    k, dim = rows.shape
    return {
        "schema": "stellar/1",
        "kind": "plane",
        "two_s": dim - 1,
        "k": k,
        "rows": [[[z.real, z.imag] for z in row] for row in rows],
    }


def test_constellation_of_tetrahedral_state():
    proc, doc = _run_json("constellation", str(FIXTURES / "tetra_s2.json"))
    assert proc.returncode == 0
    assert doc["schema"] == "stellar/1"
    assert doc["kind"] == "constellation"
    assert doc["two_s"] == 4
    assert doc["total"] == 4
    assert len(doc["stars"]) == 4
    north = min(
        doc["stars"],
        key=lambda st: abs(st["direction"][2] - 1.0),
    )
    assert abs(north["direction"][0]) < 1e-9
    assert abs(north["direction"][1]) < 1e-9
    assert abs(north["direction"][2] - 1.0) < 1e-9
    assert all(st["multiplicity"] == 1 for st in doc["stars"])


def test_import_loads_no_scipy():
    # neither the import nor a verify run, which pairs stars, needs scipy
    code = (
        "import contextlib, io, sys, stellar.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = stellar.cli.main(['verify', {str(FIXTURES / 'vw_22.json')!r}, '--seed', '3'])\n"
        "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def _blas_after_cli_import(**env) -> str:
    """OPENBLAS_NUM_THREADS and the thread count of a fresh interpreter that
    has imported stellar.cli and then numpy, the order a numpy command takes,
    started with `env` in place of the variable."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = (
        "import os, sys, stellar.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "import numpy\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**base, **env}
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_defaults_to_one_blas_thread():
    # one small plane per process: no OpenBLAS worker threads are started
    assert _blas_after_cli_import() == "1 1"


def test_cli_keeps_an_explicit_blas_setting():
    assert _blas_after_cli_import(OPENBLAS_NUM_THREADS="2").split()[0] == "2"


def _main_in_fresh_interpreter(argv) -> tuple[int, str, set]:
    """Exit code and stdout of stellar.cli.main(argv) in a fresh interpreter,
    and the numpy and stellar modules it loaded."""
    code = (
        "import contextlib, io, json, sys, stellar.cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        f"    code = stellar.cli.main({argv!r})\n"
        "loaded = [m for m in sys.modules if m == 'numpy' or m.startswith('stellar.')]\n"
        "print(json.dumps([code, buf.getvalue(), loaded]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    exit_code, stdout, loaded = json.loads(proc.stdout)
    return exit_code, stdout, set(loaded)


def test_import_loads_no_numpy_and_no_library_module():
    code = "import sys, stellar.cli; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('stellar.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['stellar.cli']"


def test_schubert_runs_without_numpy():
    code, stdout, loaded = _main_in_fresh_interpreter(["schubert", "8", "4"])
    assert (code, stdout) == (0, "1662804\n")
    assert loaded == {"stellar.cli", "stellar._exact"}


_LIBRARY = {"grassmann", "decomp", "majorana", "principal", "multicon"}


@pytest.mark.parametrize(
    "case, library",
    [
        ("multiplicities-29-7-genfun", ""),
        ("multiplicities-7-4-char", "grassmann decomp"),
        ("multiplicities-7-4-basis", "grassmann decomp"),
        ("constellation-tetra_s2", "majorana"),
        ("decompose-vw_22", "grassmann decomp"),
        ("principal-vw_22", "grassmann decomp majorana principal"),
        # the default route, `wronskian`, builds no basis
        ("principal-vw_22:default-route", "grassmann majorana principal"),
        ("multicon-vw_22", "grassmann decomp majorana multicon"),
        ("verify-vw_22", "grassmann decomp majorana principal multicon"),
    ],
)
def test_each_command_loads_only_the_modules_it_calls(case, library):
    # genfun loads no numpy; every other command loads it with spin_rep
    name, _, default_route = case.partition(":")
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in golden["argv"]]
    if default_route:
        argv = argv[: argv.index("--route")]
    code, stdout, loaded = _main_in_fresh_interpreter(argv)
    assert code == golden["exit_code"]
    if golden["argv"][0] == "multiplicities":  # integers only: equal, not close
        assert json.loads(stdout) == golden["stdout"]
    assert {m for m in _LIBRARY if f"stellar.{m}" in loaded} == set(library.split())
    assert ("numpy" in loaded) == ("stellar.spin_rep" in loaded) == bool(library)


#: Imported first by a child interpreter: counts the collections the cyclic
#: collector starts while `stellar.cli`'s `main` is on the stack, and writes
#: them, with the count of frozen objects, from an atexit handler.
_GC_PROBE = """
import atexit, gc, json, os, sys

during = []
cli = os.path.join("stellar", "cli.py")


def probe(phase, info):
    frame = sys._getframe()
    while phase == "start" and frame is not None:
        if frame.f_code.co_name == "main" and frame.f_code.co_filename.endswith(cli):
            during.append(info["generation"])
            break
        frame = frame.f_back


@atexit.register
def report():
    with open({report!r}, "w") as fh:
        json.dump({{"during": during, "frozen": gc.get_freeze_count()}}, fh)


gc.callbacks.append(probe)
"""


@pytest.mark.parametrize("case", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_the_program_runs_main_without_the_collector(tmp_path, monkeypatch, case):
    argv = json.loads((GOLDEN / f"{case}.json").read_text())["argv"]
    report = tmp_path / "report.json"
    (tmp_path / "sitecustomize.py").write_text(_GC_PROBE.format(report=str(report)))
    # the child runs in the fixtures directory: the package's path is absolute
    path = [str(tmp_path), str(Path(stellar.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "stellar.cli", *argv],
        capture_output=True, text=True, cwd=FIXTURES,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.stderr == ""
    # the command ran with the collector off, and exit found every object frozen
    probe = json.loads(report.read_text())
    assert probe["during"] == [] and probe["frozen"] > 0
    # main called in-process prints the same bytes and leaves the collector be
    monkeypatch.chdir(FIXTURES)
    state = gc.isenabled(), gc.get_freeze_count()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = stellar.cli.main(argv)
    assert (gc.isenabled(), gc.get_freeze_count()) == state
    assert (proc.stdout, proc.returncode) == (buf.getvalue(), code)


def test_the_console_script_runs_the_program():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"stellar": "stellar.cli:_program"}


def test_principal_routes_report_identical_angles():
    # the tetrahedral plane has a star at the north pole, whose phi used to
    # be the angle of each route's rounding noise
    proc, doc = _run_json("principal", str(FIXTURES / "wtetra_32.json"), "--route", "all")
    assert proc.returncode == 0
    angles = {
        name: [(st["theta"], st["phi"]) for st in route["constellation"]["stars"]]
        for name, route in doc["routes"].items()
    }
    ref = angles["wronskian"]
    for name, got in angles.items():
        # same stars in the same order: the three stars at theta = 1.9106
        # differ in their polar angles only by rounding
        assert len(got) == len(ref) == 4
        for (theta, phi), (t, p) in zip(ref, got):
            assert abs(theta - t) < 1e-9 and abs(phi - p) < 1e-9, name


def test_output_is_deterministic():
    a = _run("constellation", str(FIXTURES / "tetra_s2.json"))
    b = _run("constellation", str(FIXTURES / "tetra_s2.json"))
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


# every command that takes --out, each run to a result and an exit code
_OUT_RUNS = {
    "constellation": ("constellation", str(FIXTURES / "tetra_s2.json")),
    "principal": ("principal", str(FIXTURES / "wtetra_32.json"), "--route", "all"),
    "principal-batch": ("principal", str(FIXTURES / "wtetra_32.json"), str(FIXTURES / "vw_22.json")),
    "decompose": ("decompose", str(FIXTURES / "vw_22.json")),
    "multicon": ("multicon", str(FIXTURES / "s1k2.json")),  # exit 4
    "multiplicities": ("multiplicities", "7", "4", "--method", "char"),
    "verify": ("verify", str(FIXTURES / "vw_22.json"), "--seed", "3"),
}


@pytest.mark.parametrize("argv", _OUT_RUNS.values(), ids=_OUT_RUNS.keys())
def test_out_flag_writes_file(tmp_path, argv):
    out = tmp_path / "result.json"
    proc = _run(*argv, "--out", str(out))
    direct = _run(*argv)
    assert proc.returncode == direct.returncode
    assert proc.stdout == ""
    assert out.read_text() == direct.stdout


def test_a_failed_run_prints_its_error_document_and_writes_no_file(tmp_path):
    rng = np.random.default_rng(45)
    rows = rng.standard_normal((8, 18)) + 1j * rng.standard_normal((8, 18))
    flat = _write(tmp_path, "flat.json", _plane_doc(np.array([[1, 0, 0, 0], [2, 0, 0, 0]]) + 0j))
    # at (2s, k) = (17, 8) the sampled route's chart is singular
    p178 = _write(tmp_path, "p178.json", _plane_doc(rows))
    sampled = ("principal", p178, "--route", "sampled")
    for argv, slug in ((("decompose", flat), "rank-deficient"), (sampled, "numeric")):
        out = tmp_path / "result.json"
        proc = _run(*argv, "--out", str(out))
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["error"] == slug
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", str(FIXTURES / "vw_22.json"), "--out"),
        ("multicon", str(FIXTURES / "vw_22.json"), "--svg"),
    ],
    ids=["out", "svg"],
)
def test_an_unwritable_output_path_exits_2(tmp_path, argv):
    path = tmp_path / "nodir" / "result"
    proc = _run(*argv, str(path))
    assert proc.returncode == 2
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert (doc["kind"], doc["code"], doc["error"]) == ("error", 2, "unwritable")
    assert not path.parent.exists()


def test_schubert_has_no_out_flag():
    proc = _run("schubert", "3", "2", "--out", "x")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --out x" in proc.stderr


def test_principal_route_all_reports_agreement():
    proc, doc = _run_json(
        "principal", str(FIXTURES / "wtetra_32.json"), "--route", "all"
    )
    assert proc.returncode == 0
    assert doc["kind"] == "principal"
    assert set(doc["routes"]) == {"wronskian", "sampled", "top"}
    assert doc["route_agreement"] <= 1e-7
    wr = doc["routes"]["wronskian"]
    assert wr["constellation"]["total"] == 4
    assert len(wr["polynomial"]["coefficients"]) == 5


def test_principal_single_route_default():
    proc, doc = _run_json("principal", str(FIXTURES / "wtetra_32.json"))
    assert proc.returncode == 0
    assert set(doc["routes"]) == {"wronskian"}
    assert "route_agreement" not in doc


def test_principal_batch_with_jobs():
    p1 = str(FIXTURES / "wtetra_32.json")
    p2 = str(FIXTURES / "vw_22.json")
    proc, doc = _run_json("principal", p1, p2, "--jobs", "2", "--route", "all")
    assert proc.returncode == 0
    assert doc["kind"] == "principal_batch"
    assert set(doc["results"]) == {p1, p2}
    for sub in doc["results"].values():
        assert sub["route_agreement"] <= 1e-7


def test_a_failed_plane_leaves_the_rest_of_its_batch(tmp_path):
    rng = np.random.default_rng(46)
    rows = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    good = _write(tmp_path, "good.json", _plane_doc(rows))
    flat = _write(tmp_path, "flat.json", _plane_doc(np.array([[1, 0, 0, 0], [2, 0, 0, 0]]) + 0j))
    proc, doc = _run_json("principal", good, flat, "--route", "all")
    assert proc.returncode == 3
    assert doc["kind"] == "principal_batch"
    assert doc["results"][good]["kind"] == "principal"
    assert doc["results"][flat]["kind"] == "error"
    assert doc["results"][flat]["code"] == 3
    assert proc.stderr == ""
    # --jobs has no effect: one file gives one principal document
    proc, doc = _run_json("principal", good, "--jobs", "2")
    assert proc.returncode == 0
    assert doc["kind"] == "principal"


def test_decompose_worked_example():
    proc, doc = _run_json("decompose", str(FIXTURES / "vw_22.json"))
    assert proc.returncode == 0
    assert doc["kind"] == "decomposition"
    by_two_j = {c["two_j"]: c for c in doc["components"]}
    assert set(by_two_j) == {2, 6}
    assert abs(by_two_j[6]["norm"] - math.sqrt(13 / 20)) < 1e-9
    assert abs(by_two_j[2]["norm"] - math.sqrt(7 / 20)) < 1e-9
    assert all(c["copy_index"] == 0 for c in doc["components"])


def test_multicon_with_svg(tmp_path):
    svg = tmp_path / "sky.svg"
    proc, doc = _run_json(
        "multicon", str(FIXTURES / "vw_22.json"), "--svg", str(svg)
    )
    assert proc.returncode == 0
    assert doc["kind"] == "multiconstellation"
    assert doc["z_values"] is not None
    z3, z1 = doc["z_values"]
    assert abs(complex(*z3) - math.sqrt(13 / 20)) < 1e-9
    assert abs(complex(*z1) - 1j * math.sqrt(7 / 20)) < 1e-9
    assert doc["spectator"] is not None
    assert any("spin-1" in f for f in doc["flags"])
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "spectator" in text
    assert "j=3 copy 0" in text


def test_multicon_flagged_plane_exits_4(tmp_path):
    pair = json.loads((FIXTURES / "sigma12_32.json").read_text())
    path = _write(
        tmp_path,
        "twosols.json",
        {
            "schema": "stellar/1",
            "kind": "plane",
            "two_s": pair["two_s"],
            "k": pair["k"],
            "rows": pair["planes"][0],
        },
    )
    proc, doc = _run_json("multicon", path)
    assert proc.returncode == 4
    assert doc["z_values"] is None
    assert doc["spectator"] is None
    assert any("not applicable" in f for f in doc["flags"])


def test_plane_pair_document_rejected_by_single_plane_command():
    proc = _run("decompose", str(FIXTURES / "sigma12_32.json"))
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "error"
    assert doc["error"] == "kind-mismatch"


def test_multiplicities_all_methods_agree():
    expected = [[16, 1], [12, 1], [10, 1], [8, 2], [4, 2], [0, 1]]
    for method in ("genfun", "char", "basis"):
        proc, doc = _run_json(
            "multiplicities", "7", "4", "--method", method
        )
        assert proc.returncode == 0, method
        assert doc["nonzero"] == expected, method
        assert doc["total_dimension"] == 70
        assert doc["wedge_dimension"] == 70


def test_multiplicities_char_overflow_exits_3():
    proc, doc = _run_json("multiplicities", "74", "37", "--method", "char")
    assert proc.returncode == 3
    assert doc["kind"] == "error"
    assert "(75, 37)" in doc["message"]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_a_table_too_large_for_memory_exits_3():
    # the (31, 15) wedge index table asks for 33.6 GiB at once; the child runs
    # under a 1 GiB address-space cap, so the request fails however much the
    # machine has
    proc = subprocess.run(
        [sys.executable, "-m", "stellar.cli", "multiplicities", "30", "15", "--method", "basis"],
        capture_output=True, text=True, preexec_fn=_cap_address_space, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["kind"], doc["code"], doc["error"]) == ("error", 3, "out-of-memory")
    assert proc.stderr == ""


def test_schubert_prints_plain_integer():
    for two_s, k, expected in ((3, 2, "2"), (4, 3, "5"), (8, 4, "1662804")):
        proc = _run("schubert", str(two_s), str(k))
        assert proc.returncode == 0
        assert proc.stdout.strip() == expected


def test_verify_passes_on_worked_example():
    proc, doc = _run_json("verify", str(FIXTURES / "vw_22.json"), "--seed", "3")
    assert proc.returncode == 0
    assert doc["kind"] == "verify_report"
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert names == {
        "route-agreement",
        "plucker-residual",
        "cauchy-binet",
        "rotation-covariance",
        "complement-antipodality",
    }
    assert all(c["passed"] for c in doc["checks"])


def test_verify_passes_on_a_full_plane(tmp_path):
    # k = 2s+1: the plane is the whole space, its complement the zero plane,
    # and both constellations are empty
    rng = np.random.default_rng(44)
    for two_s, k in ((3, 4), (0, 1)):
        rows = rng.standard_normal((k, two_s + 1)) + 1j * rng.standard_normal((k, two_s + 1))
        doc = {
            "schema": "stellar/1",
            "kind": "plane",
            "two_s": two_s,
            "k": k,
            "rows": [[[z.real, z.imag] for z in row] for row in rows],
        }
        proc, out = _run_json("verify", _write(tmp_path, f"full_{two_s}.json", doc), "--seed", "3")
        assert proc.returncode == 0, proc.stdout
        assert out["passed"] is True
        comp = [c for c in out["checks"] if c["name"] == "complement-antipodality"]
        assert comp[0]["value"] == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_verify_passes_on_a_scaled_plane(tmp_path, scale):
    # at k = 4 the raw minors of these rows overflow at 1e150 and vanish at
    # 1e-150; every check reads the plane, not the scale of its rows
    rng = np.random.default_rng(94)
    rows = scale * (rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10)))
    proc, doc = _run_json("verify", _write(tmp_path, "p94.json", _plane_doc(rows)), "--seed", "3")
    assert proc.returncode == 0, proc.stdout
    assert proc.stderr == ""
    assert len(doc["checks"]) == 5 and doc["passed"] is True


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    proc = _run("decompose", str(path))
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["error"] == "malformed-json"


def test_wrong_schema_exits_2(tmp_path):
    path = _write(
        tmp_path, "alien.json", {"schema": "other/9", "kind": "plane"}
    )
    proc = _run("decompose", path)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "schema-mismatch"


def test_zero_state_exits_3(tmp_path):
    path = _write(
        tmp_path,
        "zero.json",
        {"schema": "stellar/1", "kind": "state", "two_s": 2, "coeffs": [0, 0, 0]},
    )
    proc = _run("constellation", path)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "zero-state"


def test_state_whose_roots_fail_the_backward_error_check_exits_3(tmp_path):
    # coefficients spread over 24 decades: the eigenvalue roots of its
    # Majorana polynomial miss ROOT_TOL by more than two orders of magnitude
    rng = np.random.default_rng(111)
    c = (rng.standard_normal(21) + 1j * rng.standard_normal(21)) * 10.0 ** rng.uniform(
        -12, 12, 21
    )
    path = _write(
        tmp_path,
        "spread.json",
        {
            "schema": "stellar/1",
            "kind": "state",
            "two_s": 20,
            "coeffs": [[z.real, z.imag] for z in c],
        },
    )
    proc = _run("constellation", path)
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["error"] == "numeric"
    assert "backward error" in doc["message"]


def test_sampled_route_with_a_singular_chart_exits_3(tmp_path):
    # at (2s, k) = (17, 8) the sampled route's chart is singular at every node
    rng = np.random.default_rng(45)
    rows = rng.standard_normal((8, 18)) + 1j * rng.standard_normal((8, 18))
    doc = {
        "schema": "stellar/1",
        "kind": "plane",
        "two_s": 17,
        "k": 8,
        "rows": [[[z.real, z.imag] for z in row] for row in rows],
    }
    proc = _run("principal", _write(tmp_path, "p178.json", doc), "--route", "sampled")
    assert proc.returncode == 3
    out = json.loads(proc.stdout)
    assert out["error"] == "numeric"
    assert "nonsingular sampling nodes" in out["message"]


def test_verify_fails_route_agreement_where_sampled_stars_are_off(tmp_path):
    # at (31, 2) the sampled route's stars are 3.5e-3 rad off; its
    # coefficients differ from the Wronskian's by 9e-4 in the SU(2)-invariant
    # norm, though by 1.8e-11 after scaling the largest coefficient to 1
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32))
    proc, doc = _run_json("verify", _write(tmp_path, "p312.json", _plane_doc(rows)))
    assert proc.returncode == 3
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed == ["route-agreement"]


def test_rank_deficient_plane_exits_3(tmp_path):
    path = _write(
        tmp_path,
        "flat.json",
        {
            "schema": "stellar/1",
            "kind": "plane",
            "two_s": 3,
            "k": 2,
            "rows": [[1, 0, 0, 0], [2, 0, 0, 0]],
        },
    )
    proc = _run("decompose", path)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "rank-deficient"
