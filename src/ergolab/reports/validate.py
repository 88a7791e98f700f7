"""The ``validate`` report."""


def validate(scn):
    """The system's dimensions; loading the scenario checked the rest."""
    if scn.engine == "finite":
        system = {"n": scn.system.n, "r": scn.system.r, "d": scn.system.d}
    else:
        system = {"m": scn.system.m, "r": scn.system.r, "d": scn.system.d}
    return {"valid": True, "system": system}
