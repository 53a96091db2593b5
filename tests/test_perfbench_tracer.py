"""The benchmark's tracer wraps names of this package by attribute; a name
renamed or deleted here must fail this suite, not a later traced run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_every_site_and_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracer.SITES
               if attr not in vars(owner)]
    assert missing == []
    originals = [vars(owner)[attr] for owner, attr, _ in tracer.SITES]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [vars(owner)[attr] for owner, attr, _ in tracer.SITES]
    finally:
        t.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [vars(owner)[attr] for owner, attr, _ in tracer.SITES] == originals
