import importlib

import bessel_interlace

# The package root's public names: each module's __all__, plus __version__.
ROOT_NAMES = {
    "errors": ["BesselInterlaceError", "DomainError", "BracketError", "ConvergenceError", "SearchError"],
    "evaluate": ["NU_MAX", "EvalResult", "eval_J", "eval_Y", "eval_dJ", "eval_dY"],
    "zeros": ["ZeroKind", "ZeroId", "Bracket", "ZeroRecord", "zero", "zeros_upto"],
    "interlace": [
        "CHAIN_LABELS", "InterlaceChain", "ChainReport", "ViolationWitness", "build_chain", "check_chain",
        "check_theorem1", "check_proposition", "check_derivative_chains", "check_theorem2", "find_breaking",
        "counterexample_scan",
    ],
    "wronskian": [
        "WronskianProfile", "SignIntervalReport", "eval_W", "profile_extrema", "has_positive_zero",
        "sign_agreement", "eq19_residual",
    ],
}


def test_root_exports_each_module_surface():
    names = [name for module_names in ROOT_NAMES.values() for name in module_names]
    assert len(names) == 36
    assert sorted(bessel_interlace.__all__) == sorted([*names, "__version__"])
    for module_name, module_names in ROOT_NAMES.items():
        module = importlib.import_module(f"bessel_interlace.{module_name}")
        assert sorted(module.__all__) == sorted(module_names)
        for name in module_names:
            assert getattr(bessel_interlace, name) is getattr(module, name)


def test_clear_cache_stays_in_its_module():
    assert "clear_cache" not in bessel_interlace.__all__
    assert callable(bessel_interlace.zeros.clear_cache)
