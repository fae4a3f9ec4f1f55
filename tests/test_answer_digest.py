"""The header comparison of ``benchmarks/answer_digest.py`` on synthetic
digests: no solves."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "answer_digest.py"
_SPEC = importlib.util.spec_from_file_location("answer_digest", _PATH)
answer_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(answer_digest)


def digest(scipy_version=None, time="0x1.0p+0"):
    header = {"strategy_version": 4, "blas_threads_pinned": True}
    if scipy_version is not None:
        header["scipy_version"] = scipy_version
    return {**header, "answers": {"table1/R1": {"inner-w": {"time": time}}}}


def test_differing_scipy_versions_are_printed(capsys):
    assert answer_digest.compare(digest("1.16.2"), digest("1.17.1")) == 0
    assert "scipy 1.16.2 (base) vs 1.17.1 (head)" in capsys.readouterr().out


def test_digest_without_a_version_reads_unrecorded(capsys):
    assert answer_digest.compare(digest(), digest("1.17.1", "0x1.8p+0")) == 1
    out = capsys.readouterr().out
    assert "scipy unrecorded (base) vs 1.17.1 (head)" in out
    assert "1 of 1 operators differ" in out


def test_equal_versions_print_no_version_line(capsys):
    assert answer_digest.compare(digest("1.17.1"), digest("1.17.1")) == 0
    assert "scipy" not in capsys.readouterr().out
