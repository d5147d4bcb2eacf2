"""tools/diff_outputs.py: what it compares and the commands it runs."""

import collections
import json
from pathlib import Path

import diff_outputs


def test_normalised_drops_only_the_timing_of_a_report(tmp_path):
    report = {"kind": "normal", "steps": 3, "timing": {"total_s": 0.5}, "sizes": [1, 2]}
    out = tmp_path / "a.out"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    later = tmp_path / "b.out"
    later.write_text(json.dumps({**report, "timing": {"total_s": 9.0}}) + "\n")
    other = tmp_path / "c.out"
    other.write_text(json.dumps({**report, "steps": 4}) + "\n")
    report.pop("timing")
    assert json.loads(diff_outputs.normalised(out)) == report
    assert diff_outputs.normalised(out) == diff_outputs.normalised(later)
    assert diff_outputs.normalised(out) != diff_outputs.normalised(other)
    # every other file is read byte for byte: DOT, exit codes, a text report
    for name, data in (("g.dot", b'digraph g {\n  n0 [label="c"];\n}\n'),
                       ("a.rc", b"0\n"), ("e.out", b"(\\x. x)\n"),
                       ("t.out", b'{"timing": 1}')):
        path = tmp_path / name
        path.write_bytes(data)
        if name != "t.out":
            assert diff_outputs.normalised(path) == data
    assert json.loads(diff_outputs.normalised(tmp_path / "t.out")) == {}


def test_jobs_cover_every_command_once():
    lam, trs, compiled = Path("in/lam/x.lam"), Path("in/crs/y.trs"), Path("c/crs_y.lam")
    jobs = diff_outputs.jobs([lam, trs], [compiled])
    names = [name for name, _ in jobs]
    assert len(names) == len(set(names)), "a repeated name overwrites an output"
    by_input = collections.defaultdict(list)
    for _, argv in jobs:
        by_input[argv[1]].append(argv)

    def commands(path):
        return sorted(argv[0] if argv[0] != "encode" else f"encode {argv[3]}"
                      for argv in by_input[str(path)])

    assert commands(lam) == sorted(["eval"] * 4 + ["compare", "encode crs", "encode crs-cbn",
                                                   "graph-dot"])
    assert commands(trs) == sorted(["eval"] * 4 + ["roundtrip", "encode lambda", "graph-dot"])
    assert commands(compiled) == ["encode crs", "encode crs-cbn"]
    evals = {tuple(argv[2:6]) for argv in by_input[str(lam)] if argv[0] == "eval"}
    assert evals == {("--engine", e, "--policy", p) for e in ("crs", "graph")
                     for p in ("leftmost", "random")}
    for _, argv in jobs:
        if argv[0] in ("eval", "compare", "roundtrip"):
            assert argv[-2:] == ["--emit-dot", "{out}.dot"], argv
        assert "--out" in argv, argv
