import numpy as np

from splatscan.splats import SplatModel

NAMES = ("centers", "raw_t_alpha", "raw_t_beta", "log_scales", "logit_opacity")


def _plain(rng, m):
    """Plain-space splat parameters for ``append`` and the raw values they store."""
    centers, ta, tb = (rng.normal(size=(m, 3)) for _ in range(3))
    scales, opac = rng.uniform(0.05, 0.5, (m, 2)), rng.uniform(0.1, 0.9, m)
    raw = {"centers": centers, "raw_t_alpha": ta, "raw_t_beta": tb,
           "log_scales": np.log(scales), "logit_opacity": np.log(opac / (1.0 - opac))}
    return (centers, ta, tb, scales, opac), raw


def test_named_views_follow_append_and_prune(rng):
    model = SplatModel()
    first, raw_a = _plain(rng, 3)
    second, raw_b = _plain(rng, 2)
    model.append(*first, 0)
    model.append(*second, 1)
    keep = np.array([True, False, True, True, False])
    assert model.prune(keep) == 2

    assert len(model) == 3 and model.params.shape == (3, 12)
    assert np.array_equal(model.epochs, [0, 0, 1])
    assert model.memory_bytes() == 3 * 104
    for name in NAMES:
        view = getattr(model, name)
        want = np.concatenate([raw_a[name], raw_b[name]])[keep]
        np.testing.assert_allclose(view, want, rtol=1e-15, atol=0, err_msg=name)
        assert np.shares_memory(view, model.params), name
        view += 1.0  # writes through to the matrix
        np.testing.assert_allclose(getattr(model, name), want + 1.0, rtol=1e-15,
                                   err_msg=name)


def test_empty_model_has_no_rows():
    model = SplatModel()
    assert len(model) == 0 and model.params.shape == (0, 12)
    assert model.centers.shape == (0, 3) and model.logit_opacity.shape == (0,)
    assert model.memory_bytes() == 0
