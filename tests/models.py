"""The condition model a scenario builds, for tests that need only a model."""

from pathmix import scenario_from_dict


def scenario_model(S, C, root_channel=0, **domains):
    """``scenario_from_dict(...).model`` of the default scenario with an
    S x C layout and the given ``domains`` entries (c0, c1, p0)."""
    return scenario_from_dict({"layout": {"S": S, "C": C,
                                          "root_channel": root_channel},
                               "domains": domains}).model
