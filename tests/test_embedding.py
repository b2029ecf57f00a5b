import numpy as np
import pytest

import ordmaps as om
import oracles
from ordmaps.encoding import BLOCK


def test_delay_embed_rows():
    ts = om.TimeSeries(np.arange(10.0), dt=1.0)
    pts = om.delay_embed(ts, om.EmbeddingConfig(dim=3, lag=2))
    assert pts.shape == (6, 3)
    assert pts[0].tolist() == [0, 2, 4]
    assert pts[-1].tolist() == [5, 7, 9]


def test_delay_embed_boundary():
    cfg = om.EmbeddingConfig(dim=3, lag=2)
    ts = om.TimeSeries(np.arange(5.0), dt=1.0)
    assert om.delay_embed(ts, cfg).shape == (1, 3)
    with pytest.raises(om.TooShortError, match="at least 5"):
        om.delay_embed(om.TimeSeries(np.arange(4.0), dt=1.0), cfg)


@pytest.mark.parametrize("dim, lag", [(2, 1), (3, 9), (4, 2), (2, BLOCK // 4 + 1), (3, BLOCK // 4 - 1)])
def test_delay_embed_matches_gather_oracle(dim, lag, rng):
    # 2 * BLOCK + 3 samples: more points than one block, and in the last two cases a span longer than BLOCK // 4
    ts = om.TimeSeries(rng.standard_normal(2 * BLOCK + 3), dt=1.0)
    pts = om.delay_embed(ts, om.EmbeddingConfig(dim=dim, lag=lag))
    want = oracles.delay_embed(ts.samples, dim, lag)
    assert pts.dtype == want.dtype and pts.shape == want.shape and pts.tobytes() == want.tobytes()
    assert pts.flags.c_contiguous


def test_delay_embed_returns_a_writeable_copy():
    ts = om.TimeSeries(np.arange(10.0), dt=1.0)
    pts = om.delay_embed(ts, om.EmbeddingConfig(dim=3, lag=2))
    assert pts.flags.writeable
    pts[:] = -1.0
    assert ts.samples.tolist() == list(range(10))


def test_embedding_config_validation():
    with pytest.raises(om.ConfigError, match="dimension"):
        om.EmbeddingConfig(dim=1, lag=2)
    with pytest.raises(om.ConfigError, match="lag"):
        om.EmbeddingConfig(dim=3, lag=0)


def test_embedding_constants():
    assert (om.LORENZ_EMBEDDING.dim, om.LORENZ_EMBEDDING.lag) == (3, 9)
    assert (om.ROSSLER_EMBEDDING.dim, om.ROSSLER_EMBEDDING.lag) == (3, 144)
    assert (om.MACKEY_GLASS_EMBEDDING.dim, om.MACKEY_GLASS_EMBEDDING.lag) == (2, 204)


def test_window_from_embedding_divides_span():
    w = om.window_from_embedding(om.LORENZ_EMBEDDING, 4)
    assert (w.m, w.tau, w.w) == (4, 6, 1)
    assert om.window_from_embedding(om.LORENZ_EMBEDDING, 10).tau == 2
    assert om.window_from_embedding(om.ROSSLER_EMBEDDING, 4).tau == 96
    assert om.window_from_embedding(om.MACKEY_GLASS_EMBEDDING, 4).tau == 68
    # window span equals embedding span in every case
    for cfg, m in [(om.LORENZ_EMBEDDING, 3), (om.ROSSLER_EMBEDDING, 7)]:
        w = om.window_from_embedding(cfg, m)
        assert w.span == cfg.span


def test_window_from_embedding_rejects_nondivisible():
    with pytest.raises(om.ConfigError, match="nearest valid m is 7"):
        om.window_from_embedding(om.LORENZ_EMBEDDING, 6)
    with pytest.raises(om.ConfigError, match="nearest valid m is 5"):
        om.window_from_embedding(om.MACKEY_GLASS_EMBEDDING, 6)
    # a huge span must not make the search for the nearest m walk all its divisors
    with pytest.raises(om.ConfigError, match="nearest valid m is 2"):
        om.window_from_embedding(om.EmbeddingConfig(dim=2, lag=10**12 + 1), 4)
    with pytest.raises(om.ConfigError, match="at least 2"):
        om.window_from_embedding(om.LORENZ_EMBEDDING, 1)
