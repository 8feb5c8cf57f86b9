"""Wire formats: metric documents and recipe parsing."""

import pytest

from nhgeo import expr as ex
from nhgeo import generators as gen
from nhgeo import serialize as ser

from conftest import max_abs_at, random_points

X2, V = ex.var("x2"), ex.var("v")


def sample_metric():
    recipe = gen.SolutionRecipe5D(
        signatures=(1, 1, 1, 1, 1), g2=ex.exp(X2), g3=ex.exp(X2),
        f=V, f0=ex.ZERO, h0=ex.ONE, varsigma0=ex.ONE,
        n1_funcs=(ex.ZERO,) * 3, n2_funcs=(ex.ONE,) * 3, v0=1.0)
    return gen.generate_5d(recipe, gen.Source.vacuum())


class TestMetricDocuments:
    def test_round_trip_preserves_evaluation(self):
        gm = sample_metric()
        doc = ser.metric_to_dict(gm)
        back = ser.metric_from_dict(doc)
        pts = random_points(gm.chart.all_names, k=5, seed=91)
        for i in range(3):
            for a in range(2):
                d = ex.sub(gm.nconn.entry(i, a), back.nconn.entry(i, a))
                assert max_abs_at(d, pts) < 1e-15
        for a in range(2):
            d = ex.sub(gm.metric.h[a][a], back.metric.h[a][a])
            assert max_abs_at(d, pts) < 1e-15
        assert back.provenance == gm.provenance
        assert len(back.excluded) == len(gm.excluded)

    def test_shape_validation(self):
        doc = ser.metric_to_dict(sample_metric())
        doc["g"] = doc["g"][:2]
        with pytest.raises(ser.ConfigError):
            ser.metric_from_dict(doc)

    def test_unknown_names_rejected(self):
        doc = ser.metric_to_dict(sample_metric())
        doc["g"][0][0] = "zz + 1"
        with pytest.raises(ser.ConfigError):
            ser.metric_from_dict(doc)


class TestRecipeParsing:
    def test_defaults_filled(self):
        family, recipe, src, entries = ser.recipe_from_dict({
            "family": "gensol1_4d", "signatures": [1, 1, 1, 1, 1],
            "functions": {"g2": "exp(x2)", "g3": "exp(x2)", "f": "v"},
        })
        assert family == "gensol1_4d"
        assert [name for name, _ in entries] == [
            "functions.g2", "functions.g3", "functions.f",
            "source.upsilon2", "source.upsilon4"]
        assert ex.is_zero(recipe.f0)
        assert ex.is_zero(src.upsilon2) and ex.is_zero(src.upsilon4)
        gm = gen.generate_4d(recipe, src)
        assert gm.chart.dim == 4

    def test_lambda_shortcut(self):
        src = ser.source_from_dict({"lambda": 0.25}, ("x2", "x3", "v"))
        assert src.lam == 0.25
        assert ex.evaluate(src.upsilon2, {}) == 0.25

    def test_bad_signature_count(self):
        with pytest.raises(ser.ConfigError):
            ser.recipe_from_dict({"family": "gensol1_5d",
                                  "signatures": [1, 1],
                                  "functions": {"g2": "1", "g3": "1", "f": "v"}})

    def test_chi_samples(self):
        assert ser.chi_samples_from_dict({"chi": [0.0, 0.25]}) == (0.0, 0.25)
        got = ser.chi_samples_from_dict(
            {"chi": {"min": 0.0, "max": 1.0, "count": 3}})
        assert got == (0.0, 0.5, 1.0)
        with pytest.raises(ser.ConfigError):
            ser.chi_samples_from_dict({"chi": {"min": 0.0}})
