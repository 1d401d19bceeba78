"""Command line interface: exit codes, determinism, output formats."""
import errno
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vpshell
from vpshell import complexes, labeling, vecpart
from vpshell.cli import main
from vpshell.spherecount import count_by_recursion, count_total
from conftest import count_calls


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_all_methods(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--s", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["methods"]["enumerate"] == 4
    assert set(doc["methods"]) == {"enumerate", "recursion", "mobius",
                                   "homology", "euler"}


def test_count_single_method(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--s", "1",
                       "--method", "recursion")
    assert code == 0
    doc = json.loads(out)
    assert doc["methods"] == {"recursion": 33}
    assert doc["match"] is True


def test_count_matches_when_every_value_is_null(capsys):
    # at n = 1 the proper part is empty, so homology and Euler give null
    # and no two values differ
    for method in ("homology", "euler"):
        code, out, _ = run(capsys, "count", "--n", "1", "--s", "1",
                           "--method", method)
        assert code == 0, method
        doc = json.loads(out)
        assert doc["methods"] == {method: None}
        assert doc["match"] is True


def test_count_is_byte_deterministic(capsys):
    a = run(capsys, "count", "--n", "3", "--s", "1")
    b = run(capsys, "count", "--n", "3", "--s", "1")
    assert a == b


def test_count_budget_exit(capsys):
    code, _, err = run(capsys, "count", "--n", "9", "--s", "3")
    assert code == 3
    assert "budget" in err


def test_chain_budget_bounds_every_chain_walk(capsys):
    # (4,2) has 10,368 maximal chains, which homology and the shelling
    # check list, and 1,899 decreasing chains, which enumerate lists
    for argv, chains in ((("count", "--method", "homology"), "10368 maximal"),
                         (("verify-el", "--sabotage", "min-merge-label"),
                          "10368 maximal"),
                         (("count", "--method", "enumerate"),
                          "1899 decreasing")):
        code, out, err = run(capsys, *argv, "--n", "4", "--s", "2",
                             "--max-chains", "5")
        assert (code, out) == (3, ""), argv
        assert err == (f"budget exceeded: poset has {chains} chains, "
                       "budget is 5\n"), argv
    code, out, _ = run(capsys, "count", "--method", "enumerate", "--n",
                       "4", "--s", "2", "--max-chains", "1899")
    assert code == 0 and json.loads(out)["methods"] == {"enumerate": 1899}


def test_only_the_walks_that_use_a_budget_take_it(capsys):
    assert run(capsys, "sequence", "--s", "1", "--max-n", "3",
               "--max-elements", "1")[0] == 4
    assert run(capsys, "sequence", "--s", "1", "--max-n", "3",
               "--max-chains", "1")[0] == 4
    assert run(capsys, "build", "--n", "2", "--s", "1",
               "--max-chains", "1")[0] == 4
    # the mobius, euler and recursion routes list no chain
    code, out, _ = run(capsys, "count", "--n", "3", "--s", "1",
                       "--method", "mobius", "--max-chains", "5")
    assert code == 0 and json.loads(out)["methods"] == {"mobius": 4}
    code, out, _ = run(capsys, "count", "--n", "4", "--s", "2",
                       "--method", "euler", "--max-chains", "5")
    assert code == 0 and json.loads(out)["methods"] == {"euler": 1899}


def test_negative_budgets_exit_4(capsys):
    code, out, err = run(capsys, "count", "--n", "3", "--s", "1",
                         "--max-chains", "-1")
    assert (code, out) == (4, "") and "negative" in err
    code, out, err = run(capsys, "build", "--n", "2", "--s", "1",
                         "--max-elements", "-3")
    assert (code, out) == (4, "") and "negative" in err
    # 0 is a budget, one that refuses every poset
    assert run(capsys, "build", "--n", "2", "--s", "1",
               "--max-elements", "0")[0] == 3
    assert run(capsys, "count", "--n", "3", "--s", "1",
               "--max-chains", "0")[0] == 3


def test_bad_input_exits_4(capsys):
    assert run(capsys, "count", "--n", "0", "--s", "1")[0] == 4
    assert run(capsys, "count", "--n", "3")[0] == 4
    assert run(capsys, "count", "--n", "3", "--s", "1",
               "--method", "sorcery")[0] == 4
    assert run(capsys, "no-such-command")[0] == 4


def test_verify_el_clean(capsys):
    code, out, _ = run(capsys, "verify-el", "--n", "3", "--s", "1")
    assert code == 0
    assert "passed" in out


def test_verify_el_sabotages_exit_1(capsys):
    for name in ("swap-bottom-labels", "min-merge-label", "drop-tie-break"):
        code, out, _ = run(capsys, "verify-el", "--n", "3", "--s", "1",
                           "--sabotage", name)
        assert code == 1, name


def test_verify_el_failure_exits_1(capsys, monkeypatch):
    from vpshell import labeling
    monkeypatch.setattr(labeling, "verify_el", lambda p: labeling.ELReport(
        False, (0, 5, "2 increasing chains")))
    code, out, err = run(capsys, "verify-el", "--n", "3", "--s", "1")
    assert (code, err) == (1, "")
    assert out == ("EL verification FAILED on interval (0, 5): "
                   "2 increasing chains\n")


@pytest.mark.parametrize("n, s, name, want", [
    # at n = 2 the min-merge labels are still an EL-labeling, and no two
    # facets share a label word, so neither defect shows
    ("2", "1", "swap-bottom-labels", 1), ("2", "1", "min-merge-label", 0),
    ("2", "1", "drop-tie-break", 0),
    ("2", "2", "swap-bottom-labels", 1), ("2", "2", "min-merge-label", 0),
    ("2", "2", "drop-tie-break", 0),
    ("3", "1", "swap-bottom-labels", 1), ("3", "1", "min-merge-label", 1),
    ("3", "1", "drop-tie-break", 1),
    ("3", "2", "swap-bottom-labels", 1), ("3", "2", "min-merge-label", 1),
    ("3", "2", "drop-tie-break", 1),
])
def test_where_each_sabotage_is_caught(capsys, n, s, name, want):
    code, out, err = run(capsys, "verify-el", "--n", n, "--s", s,
                         "--sabotage", name)
    assert (code, err) == (want, "")
    assert ("FAILED" in out or "INVALID" in out) == bool(want)


def test_sabotages_at_n_1_change_nothing(capsys):
    # one atom and no facet: no bottom labels to swap, no tie to drop
    for s in ("1", "2"):
        for name in ("swap-bottom-labels", "min-merge-label",
                     "drop-tie-break"):
            code, out, err = run(capsys, "verify-el", "--n", "1", "--s", s,
                                 "--sabotage", name)
            assert (code, err) == (0, ""), (s, name)
            assert "EL verification passed" in out, (s, name)
            assert "shelling valid" in out, (s, name)


def test_out_of_memory_exits_3(capsys, monkeypatch):
    from vpshell import vecpart

    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(vecpart, "vector_partition_poset", exhaust)
    code, out, err = run(capsys, "verify-el", "--n", "3", "--s", "1")
    assert code == 3
    assert out == ""
    assert err == "budget exceeded: out of memory\n"


def test_sequence_csv(capsys):
    code, out, _ = run(capsys, "sequence", "--s", "1", "--max-n", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,s,count,tree_count"
    assert lines[-1] == "6,1,9460,9460"


def test_sequence_s2_has_no_tree_column(capsys):
    code, out, _ = run(capsys, "sequence", "--s", "2", "--max-n", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,s,count"
    assert lines[-1] == "4,2,1899"


def test_sequence_tree_count_mismatch_exits_2(capsys, monkeypatch):
    # every row is printed, the disagreeing ones too
    from vpshell import spherecount
    monkeypatch.setattr(spherecount, "nonambiguous_tree_count",
                        lambda m: 4 if m == 2 else 1)
    code, out, err = run(capsys, "sequence", "--s", "1", "--max-n", "4")
    assert (code, err) == (2, "")
    assert out == "n,s,count,tree_count\n1,1,1,1\n2,1,1,1\n3,1,4,4\n4,1,33,1\n"


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", "--n", "2", "--s", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 4
    assert len(doc["covers"]) == 4


def test_build_labeled_dot(capsys):
    code, out, _ = run(capsys, "build", "--n", "2", "--s", "1",
                       "--format", "dot", "--labels")
    assert code == 0
    assert out.startswith("digraph")
    assert "label=" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "count", "--n", "2", "--s", "1",
                       "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["match"] is True


@pytest.mark.parametrize("argv", [
    ("build", "--n", "3", "--s", "1"),
    ("build", "--n", "3", "--s", "2", "--labels", "--format", "dot"),
    ("count", "--n", "3", "--s", "1"),
    ("verify-el", "--n", "3", "--s", "1"),
    ("sequence", "--s", "2", "--max-n", "4"),
])
def test_output_file_gets_the_stdout_bytes(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "out"
    assert run(capsys, *argv, "-o", str(target)) == (code, "", "")
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", [
    ("count", "--n", "2", "--s", "1"),
    ("build", "--n", "3", "--s", "1", "--labels"),
    ("build", "--n", "3", "--s", "1", "--format", "dot"),
], ids=["count", "build_labels", "build_dot"])
def test_unwritable_output_exits_4(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, "-o", str(target))
    assert (code, out) == (4, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


class FailingStdout:
    """A stdout whose every write raises the given OSError."""

    def __init__(self, exc):
        self.exc = exc

    def write(self, text):
        raise self.exc

    def flush(self):
        pass


@pytest.mark.parametrize("exc", [
    BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
], ids=["broken_pipe", "disk_full"])
@pytest.mark.parametrize("argv", [
    ("count", "--n", "3", "--s", "1"),
    ("build", "--n", "3", "--s", "1", "--format", "dot"),
], ids=["count", "build_dot"])
def test_stdout_write_failure_exits_4(capsys, monkeypatch, exc, argv):
    monkeypatch.setattr(sys, "stdout", FailingStdout(exc))
    code = main(list(argv))
    err = capsys.readouterr().err
    assert (code, err) == (4, f"error: cannot write stdout: {exc.strerror}\n")


@pytest.mark.parametrize("argv", [("--help",), ("count", "--help")],
                         ids=["help", "count_help"])
def test_help_write_failure_exits_4(capsys, monkeypatch, argv):
    # argparse prints help through a write that drops OSError; the
    # parser routes it through the writer every command uses
    exc = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(sys, "stdout", FailingStdout(exc))
    code = main(list(argv))
    err = capsys.readouterr().err
    assert (code, err) == (4, f"error: cannot write stdout: {exc.strerror}\n")


def test_stdout_closed_early_exits_4_without_traceback():
    # the reader takes 100 bytes of some 360 KB and closes the pipe, more
    # than the pipe and the stdout buffer hold; nothing else reaches
    # stderr, not even at interpreter exit
    env = dict(os.environ, PYTHONPATH=str(Path(vpshell.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "vpshell", "build", "--n", "4", "--s", "2",
         "--labels"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(), err) == (4, "error: cannot write stdout: "
                                     f"{os.strerror(errno.EPIPE)}\n")


def test_build_writes_its_file_a_piece_at_a_time(tmp_path, monkeypatch):
    # what build allocates past the built poset, the text its writer
    # holds at once, stays under half of the file it writes
    import tracemalloc
    from vpshell import vecpart

    built, held = vecpart.vector_partition_poset, []

    def build_then_reset_peak(*args, **kwargs):
        p = built(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return p

    monkeypatch.setattr(vecpart, "vector_partition_poset",
                        build_then_reset_peak)
    target = tmp_path / "out.json"
    tracemalloc.start()
    try:
        code = main(["build", "--n", "5", "--s", "1", "--labels",
                     "-o", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(held) == 1
    assert peak - held[0] < target.stat().st_size / 2


def test_build_respects_element_budget(capsys):
    code, _, err = run(capsys, "build", "--n", "4", "--s", "2",
                       "--max-elements", "10")
    assert code == 3
    assert "budget" in err


def test_element_budget_is_checked_before_enumerating(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "count", "--n", "80", "--s", "1",
                       "--method", "mobius")
    assert code == 3
    assert "elements, budget is" in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("argv", [
    ("count", "--n", "1000", "--s", "1", "--method", "enumerate"),
    ("count", "--n", "50000", "--s", "1", "--method", "homology"),
    ("count", "--n", "200000", "--s", "1"),
    ("verify-el", "--n", "200000", "--s", "1", "--sabotage",
     "min-merge-label"),
], ids=["enumerate", "homology", "all", "verify-el"])
def test_element_budget_comes_before_the_chain_counts(capsys, argv):
    # the chain counts, count_total and maximal_chain_count, grow with n
    # as big ints; the element budget refuses at a small m instead
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: poset has at least ")
    assert err.endswith(" elements, budget is 1000000\n")


@pytest.mark.parametrize("argv", [
    ("count", "--n", "2", "--s", "10000000"),
    ("verify-el", "--n", "3", "--s", "30000000"),
], ids=["count", "verify-el"])
def test_a_huge_s_is_refused_at_once_in_one_short_line(capsys, argv):
    # 1 + E_2 = 2^s + 2 would take seconds to make and to print, and its
    # text would run to millions of digits; 2^s bounds it
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (3, "")
    assert err == (f"budget exceeded: poset has more than 2^{argv[4]} "
                   "elements, budget is 1000000\n")
    assert len(err) < 80


@pytest.mark.parametrize("name", vpshell.SABOTAGES)
def test_a_sabotage_run_builds_one_poset_and_one_complex(capsys,
                                                         monkeypatch, name):
    # and one label map: the defect's labels go on the poset once, and
    # both verifiers read them there
    calls = count_calls(monkeypatch, vecpart.vector_partition_poset,
                        complexes.order_complex, labeling.sabotaged_label_map)
    code, out, _ = run(capsys, "verify-el", "--n", "3", "--s", "1",
                       "--sabotage", name)
    assert code == 1 and out.count(f"[sabotage {name}]") == 2
    assert calls == {"vector_partition_poset": 1, "order_complex": 1,
                     "sabotaged_label_map": 1}


def test_element_budget_is_checked_before_the_chain_budget(capsys):
    # both budgets refuse (4,2), 1,614 elements and 10,368 maximal chains
    for argv in (("count",), ("count", "--method", "homology"),
                 ("count", "--method", "enumerate"),
                 ("verify-el", "--sabotage", "drop-tie-break")):
        code, out, err = run(capsys, *argv, "--n", "4", "--s", "2",
                             "--max-elements", "1613", "--max-chains", "5")
        assert (code, out) == (3, ""), argv
        assert err == ("budget exceeded: poset has 1614 elements, "
                       "budget is 1613\n"), argv


def test_plain_verify_el_takes_the_element_budget(capsys):
    code, out, err = run(capsys, "verify-el", "--n", "4", "--s", "2",
                         "--max-elements", "1613")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: poset has 1614 elements, budget is 1613\n"
    # the EL check lists no chain, so no chain budget refuses it
    assert run(capsys, "verify-el", "--n", "3", "--s", "1",
               "--max-chains", "1")[0] == 0


def test_recursion_reaches_large_n(capsys):
    count_by_recursion.cache_clear()
    count_total.cache_clear()
    code, out, err = run(capsys, "count", "--n", "250", "--s", "1",
                         "--method", "recursion")
    assert (code, err) == (0, "")
    assert json.loads(out)["methods"]["recursion"] == count_total(250, 1)


def test_sequence_prints_past_the_int_digit_limit(capsys):
    # the last rows have 1,045 digits, above the lowered limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "sequence", "--s", "3", "--max-n", "150")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    last = out.strip().split("\n")[-1]
    assert last == "150,3," + str(count_total(150, 3))
    assert len(last) > 1000


def _golden_jobs(n, s):
    ns = ("--n", str(n), "--s", str(s))
    yield ("build",) + ns
    yield ("build",) + ns + ("--labels",)
    yield ("build",) + ns + ("--format", "dot")
    yield ("build",) + ns + ("--format", "dot", "--labels")
    yield ("verify-el",) + ns
    for sabotage in ("swap-bottom-labels", "min-merge-label",
                     "drop-tie-break"):
        yield ("verify-el",) + ns + ("--sabotage", sabotage)
    for method in ("all", "enumerate", "recursion", "mobius", "homology",
                   "euler"):
        yield ("count",) + ns + ("--method", method)
    yield ("sequence", "--s", str(s), "--max-n", str(n))


# invocation -> (exit code, first 16 hex digits of the SHA-256 of stdout),
# recorded before the certificate shared one poset among its routes
GOLDEN = {
    "build --n 2 --s 1": (0, "7faa5969d334e26b"),
    "build --n 2 --s 1 --labels": (0, "96020b31b4c18157"),
    "build --n 2 --s 1 --format dot": (0, "5a36c980b59f069f"),
    "build --n 2 --s 1 --format dot --labels": (0, "080b842f6725d375"),
    "verify-el --n 2 --s 1": (0, "00701f76f04ba28c"),
    "verify-el --n 2 --s 1 --sabotage swap-bottom-labels": (1, "811d7fdfe383ef14"),
    "verify-el --n 2 --s 1 --sabotage min-merge-label": (0, "2871936ee0ab4ab9"),
    "verify-el --n 2 --s 1 --sabotage drop-tie-break": (0, "03fa0be00fd0e343"),
    "count --n 2 --s 1 --method all": (0, "20f601e20d64ad37"),
    "count --n 2 --s 1 --method enumerate": (0, "a2d0b91373ae267a"),
    "count --n 2 --s 1 --method recursion": (0, "5a3eb4764bc64593"),
    "count --n 2 --s 1 --method mobius": (0, "2990a9fa6c8bebcd"),
    "count --n 2 --s 1 --method homology": (0, "ecf87d3119a0af33"),
    "count --n 2 --s 1 --method euler": (0, "54f6959128e82ede"),
    "sequence --s 1 --max-n 2": (0, "68498560fc99a02f"),
    "build --n 3 --s 1": (0, "8c40fe40c660c9d1"),
    "build --n 3 --s 1 --labels": (0, "b5dafc8ba188c3f4"),
    "build --n 3 --s 1 --format dot": (0, "b4e3de7ae7a650e9"),
    "build --n 3 --s 1 --format dot --labels": (0, "6996692c86be4b83"),
    "verify-el --n 3 --s 1": (0, "00701f76f04ba28c"),
    "verify-el --n 3 --s 1 --sabotage swap-bottom-labels": (1, "300a6c552040e75f"),
    "verify-el --n 3 --s 1 --sabotage min-merge-label": (1, "02e52103ad1d5725"),
    "verify-el --n 3 --s 1 --sabotage drop-tie-break": (1, "126d46d9aaf281b9"),
    "count --n 3 --s 1 --method all": (0, "47bc62e8cd47c983"),
    "count --n 3 --s 1 --method enumerate": (0, "e93d01c8698ebfd1"),
    "count --n 3 --s 1 --method recursion": (0, "22ec696d21fb143c"),
    "count --n 3 --s 1 --method mobius": (0, "351f9e63326ef0dc"),
    "count --n 3 --s 1 --method homology": (0, "40d75815181eeba3"),
    "count --n 3 --s 1 --method euler": (0, "643a36bdd6b2e39e"),
    "sequence --s 1 --max-n 3": (0, "8342fbc09fd056c9"),
    "build --n 2 --s 2": (0, "fdb7e9d346a995db"),
    "build --n 2 --s 2 --labels": (0, "b759fca9bf9bdd2e"),
    "build --n 2 --s 2 --format dot": (0, "fd8acb485d8479ac"),
    "build --n 2 --s 2 --format dot --labels": (0, "2e6306a28c91e961"),
    "verify-el --n 2 --s 2": (0, "00701f76f04ba28c"),
    "verify-el --n 2 --s 2 --sabotage swap-bottom-labels": (1, "7253e1a47ce02ff6"),
    "verify-el --n 2 --s 2 --sabotage min-merge-label": (0, "2871936ee0ab4ab9"),
    "verify-el --n 2 --s 2 --sabotage drop-tie-break": (0, "03fa0be00fd0e343"),
    "count --n 2 --s 2 --method all": (0, "4a90ddf825dec0e2"),
    "count --n 2 --s 2 --method enumerate": (0, "5013b73d18c8bb8f"),
    "count --n 2 --s 2 --method recursion": (0, "ed3364f95ca64e3f"),
    "count --n 2 --s 2 --method mobius": (0, "30d248776dfd4f66"),
    "count --n 2 --s 2 --method homology": (0, "052c1353f80e8fdd"),
    "count --n 2 --s 2 --method euler": (0, "8be4942b7bf4ff86"),
    "sequence --s 2 --max-n 2": (0, "a6b2bf671d34de7d"),
    # recorded before covers were labelled as they are generated
    "build --n 4 --s 1 --labels": (0, "054aafb1bc6767ce"),
    "build --n 3 --s 2 --labels --format dot": (0, "b7604f92367426f0"),
    "verify-el --n 3 --s 2": (0, "00701f76f04ba28c"),
}


def test_golden_output_digests(capsys):
    got = {}
    for n, s in ((2, 1), (3, 1), (2, 2)):
        for argv in _golden_jobs(n, s):
            code, out, _ = run(capsys, *argv)
            got[" ".join(argv)] = (
                code, hashlib.sha256(out.encode()).hexdigest()[:16])
    for line in ("build --n 4 --s 1 --labels",
                 "build --n 3 --s 2 --labels --format dot",
                 "verify-el --n 3 --s 2"):
        code, out, _ = run(capsys, *line.split())
        got[line] = (code, hashlib.sha256(out.encode()).hexdigest()[:16])
    assert got == GOLDEN


# the benchmark's build jobs: (exit code, first 16 hex digits of the
# SHA-256 of stdout), recorded before the elements were generated in order
BUILD_GOLDEN = {
    "build --n 4 --s 2 --labels --format dot": (0, "1c7cf5931228ee97"),
    "build --n 5 --s 1 --labels": (0, "f9a0dd7cec6a1739"),
}


def test_build_benchmark_outputs_pinned(capsys):
    got = {}
    for line in BUILD_GOLDEN:
        code, out, _ = run(capsys, *line.split())
        got[line] = (code, hashlib.sha256(out.encode()).hexdigest()[:16])
    assert got == BUILD_GOLDEN


# the benchmark's certify and verify jobs, pinned the same way, recorded
# before the budgets were checked by one function
CERTIFY_VERIFY_GOLDEN = {
    "count --n 4 --s 1": (0, "14ad1cea57df3bd4"),
    "count --n 3 --s 2": (0, "c7a6b127db7a796f"),
    "count --n 3 --s 3": (0, "eae1958bd125b292"),
    "count --n 3 --s 4": (0, "4cf00f4d4361a7d5"),
    "count --n 4 --s 2": (0, "2d22747c5f2a6284"),
    "sequence --s 3 --max-n 150": (0, "ecc34ff6409a12ea"),
    "verify-el --n 3 --s 4": (0, "00701f76f04ba28c"),
    "verify-el --n 4 --s 2": (0, "00701f76f04ba28c"),
    "verify-el --n 5 --s 1": (0, "00701f76f04ba28c"),
    "verify-el --n 3 --s 4 --sabotage swap-bottom-labels": (1, "88b3e97bfbb9632e"),
    "verify-el --n 3 --s 4 --sabotage drop-tie-break": (1, "126d46d9aaf281b9"),
    "verify-el --n 3 --s 4 --sabotage min-merge-label": (1, "fb2e19ddb97ac311"),
}


def test_certify_and_verify_benchmark_outputs_pinned(capsys):
    got = {}
    for line in CERTIFY_VERIFY_GOLDEN:
        code, out, _ = run(capsys, *line.split())
        got[line] = (code, hashlib.sha256(out.encode()).hexdigest()[:16])
    assert got == CERTIFY_VERIFY_GOLDEN
