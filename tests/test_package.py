import types

import duffing_aa


def test_exports_are_the_public_api():
    # __all__ is derived from __init__'s names, so a helper imported there
    # without an underscore would silently become API; this pins the set
    assert sorted(duffing_aa.__all__) == sorted("""
        CenterSingular CheckReport ConfigError DEFAULT_CONFIG DuffingError
        IntegratorConfig MaxStepsExceeded NoReturn OnSeparatrix OriginSingular
        Params State StepFailure Trajectory USING_NUMBA UnwrapAmbiguous
        action_covered action_original covered_field dH_dtheta duffing_field
        energy_angle_curve energy_rate find_period hamiltonian
        integrate_original principal_root run_all run_check sheet_sign square
        state_on_level theta_dot_of theta_of unwrap_theta""".split())


def test_no_module_or_private_name_is_exported():
    for name in duffing_aa.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(duffing_aa, name), types.ModuleType), name
    # the submodules (and the types module __init__ reads) are attributes
    # of the package, but not its API
    hidden = set(vars(duffing_aa)) - set(duffing_aa.__all__)
    assert {"dynamics", "verify", "_kernels", "types", "__version__"} <= hidden


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
