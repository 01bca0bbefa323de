"""Models and prediction stacks that several test modules draw: the
condition model a scenario builds, and seeded random SegmentPredictions."""

from pathmix import SegmentPredictions, scenario_from_dict


def scenario_model(S, C, root_channel=0, **domains):
    """``scenario_from_dict(...).model`` of the default scenario with an
    S x C layout and the given ``domains`` entries (c0, c1, p0)."""
    return scenario_from_dict({"layout": {"S": S, "C": C,
                                          "root_channel": root_channel},
                               "domains": domains}).model


def random_preds(rng, K=4, S=16, C=4):
    return SegmentPredictions(rng.normal(size=(K, S, C)),
                              rng.normal(size=(K, S, C)),
                              rng.normal(size=(K, S, C)))


def interior_instance(rng, K, S=16, C=4):
    """Predictions whose unconditional sits near an interior blend, so the
    unconstrained optimum tends to land inside (0, 1)."""
    source = rng.normal(size=(K, S, C))
    target = rng.normal(size=(K, S, C))
    levels = rng.uniform(0.25, 0.75, size=K)[:, None, None]
    uncond = ((1 - levels) * source + levels * target
              + 0.05 * rng.normal(size=(K, S, C)))
    rng.normal(size=(K, S, C))  # unused draw: keeps the seeded instances
    return SegmentPredictions(source, target, uncond)
