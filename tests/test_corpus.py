from __future__ import annotations

from tickflow import corpus
from tickflow.corpus import load_cases, run_corpus

from conftest import corpus_sources


def test_every_golden_case_passes(corpus_dir):
    report = run_corpus(corpus_dir)
    assert report.ok, "\n" + report.summary()


def test_every_program_has_a_case(corpus_dir):
    covered = {case.program.split("/")[-1] for case in load_cases(corpus_dir)}
    for path in corpus_sources():
        assert path.name in covered, f"{path.name} has no golden case"


def test_known_divergence_is_marked(corpus_dir):
    cases = {case.name: case for case in load_cases(corpus_dir)}
    assert "divergence" in cases["read-write-parallel"].note


def test_each_case_runs_the_rewritten_and_the_native_program_once(corpus_dir, monkeypatch):
    runs = {False: 0, True: 0}  # native_flows -> runs
    real = corpus.run

    def counting(*args, native_flows=False, **kw):
        runs[native_flows] += 1
        return real(*args, native_flows=native_flows, **kw)

    monkeypatch.setattr(corpus, "run", counting)
    cases = len(load_cases(corpus_dir))
    assert run_corpus(corpus_dir).ok
    assert runs == {False: cases, True: cases}
