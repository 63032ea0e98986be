import duffing_aa


def test_every_export_resolves():
    # a stale name in __all__ breaks `from duffing_aa import *`
    assert [n for n in duffing_aa.__all__ if not hasattr(duffing_aa, n)] == []
    namespace = {}
    exec("from duffing_aa import *", namespace)
    assert set(duffing_aa.__all__) <= set(namespace)


def test_the_covering_is_its_array_forms():
    for name in ("cover_map", "inverse_cover", "CoveredState", "Sheet"):
        assert not hasattr(duffing_aa, name), name
    assert {"square", "sheet_sign", "principal_root"} <= set(duffing_aa.__all__)


def test_the_sheets_are_the_only_cut_record():
    # a trajectory's sheet column, read off each sample, is where it
    # crossed the cut; no second record of the crossings is kept
    for name in ("Event", "CUT_CROSSING", "DegenerateCrossing"):
        assert not hasattr(duffing_aa, name), name
    assert not hasattr(duffing_aa.Trajectory, "events")
    assert hasattr(duffing_aa.Trajectory, "sheets")


def test_numpy_is_the_only_backend():
    # perfbench/run.py reads this name to report the backend that ran
    assert duffing_aa.USING_NUMBA is False
