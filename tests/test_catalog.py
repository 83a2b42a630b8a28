"""Catalog entries reproduce their annotated expected values under the pipeline."""

import numpy as np
import pytest

import minsurf as ms
from minsurf import catalog
from conftest import laurent_coefficient
from minsurf.ends import analyze_end
from minsurf.errors import UsageError


class TestAnnotations:
    def test_every_entry_validates(self, all_entries):
        for entry in all_entries:
            report = entry.data.validate()
            assert report.ok, (entry.name, report.messages)

    def test_expected_values_reproduced(self, all_entries):
        for entry in all_entries:
            exp = entry.expected
            rep = ms.chern_osserman(entry.data)
            assert rep.d == exp.d, entry.name
            assert rep.tc_pi == exp.tc_pi, entry.name
            assert rep.m == exp.num_ends, entry.name
            assert rep.chi == exp.chi, entry.name
            assert rep.co_equality == exp.co_equality, entry.name
            assert rep.full == exp.full and rep.l == exp.l, entry.name
            assert rep.gackstatter_pi == exp.gackstatter_pi, entry.name
            assert rep.ejiri_pi == exp.ejiri_pi, entry.name
            assert rep.ejiri_equality == exp.ejiri_equality, entry.name
            for p, mu, cls, ri, emb in zip(entry.data.punctures, exp.end_orders,
                                           exp.end_types, exp.rotation_indices,
                                           exp.embedded):
                e = analyze_end(entry.data, p)
                assert e.mu == mu, (entry.name, p)
                assert e.classification == cls, (entry.name, p)
                assert e.rotation_index == ri, (entry.name, p)
                assert e.embedded == emb, (entry.name, p)


class TestJorgeMeeks:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_residue_oracle_at_one(self, m):
        # res of g_0/2 at z = 1 equals -m/(m+1)^2:
        # g_0 = -(1 + z + ... + z^(2m-1)) / ((z-1) S_{m+1}(z)^2)
        w = ms.generalized_jorge_meeks(m).data
        got = laurent_coefficient(w.phi[0], 1.0 + 0j, -1)
        assert abs(got - (-m / (m + 1) ** 2)) < 1e-12

    def test_m1_reduces_to_two_ended_r3(self):
        entry = ms.generalized_jorge_meeks(1)
        assert entry.data.n == 3
        rep = ms.chern_osserman(entry.data)
        assert rep.d == 2 and rep.tc_pi == -4 and rep.co_equality

    def test_puncture_locations(self, jm2):
        expected = [np.exp(2j * np.pi * k / 3) for k in range(3)]
        assert len(jm2.data.punctures) == 3
        for p in jm2.data.punctures:
            assert min(abs(p - e) for e in expected) < 1e-14

    @pytest.mark.parametrize("m", [0, 7, -1])
    def test_parameter_range(self, m):
        with pytest.raises(ValueError):
            ms.generalized_jorge_meeks(m)
        with pytest.raises(UsageError):
            ms.generalized_jorge_meeks(m)


class TestRegistry:
    def test_names_listed(self):
        names = catalog.names()
        assert "catenoid" in names and "generalized-jorge-meeks" in names

    def test_get_with_param(self):
        entry = catalog.get("generalized-jorge-meeks", 3)
        assert entry.data.n == 7
        assert len(entry.data.punctures) == 4

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog.get("nosuch")

    def test_parameter_to_an_entry_that_takes_none(self):
        with pytest.raises(UsageError, match="takes no parameter"):
            catalog.get("catenoid", 3)
        assert catalog.get("catenoid").name == "catenoid"
        assert catalog.get("generalized-jorge-meeks").data.n == 5
