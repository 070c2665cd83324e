"""The clustering and pairing plans that `starnoma cluster` prints.

A plan is the groups the rates rate (rates.cluster_members and
comparison.pair_groups), resolved on one drop of the scheme's simulator
layout, so every check here reads the printed rows.
"""

import csv

import pytest

from starnoma.cli import main
from starnoma.config import baseline_config, dump_config
from starnoma.rates import ROLES


@pytest.fixture()
def plan(capsys, tmp_path):
    """Rows and bytes of a plan printed to stdout, of the baseline unless a config is given."""

    def run(*args, cfg=None):
        argv = ["cluster", *args]
        if cfg is not None:
            path = tmp_path / "cfg.yaml"
            dump_config(cfg, str(path))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        text = capsys.readouterr().out
        return list(csv.DictReader(text.splitlines())), text

    return run


def _all_users(cfg):
    counts = {"dl_c": cfg.K_cd, "dl_e": cfg.K_ed, "ul_c": cfg.K_cu, "ul_e": cfg.K_eu}
    return sorted(f"{cls}{k}" for cls, K in counts.items() for k in range(1, K + 1))


def _distances(rows, role):
    return [float(r["distance"]) for r in rows if r["role"] == role]


def _group(rows, g):
    return {r["role"]: r for r in rows if r["group"] == str(g)}


class TestClusterUsers:
    def test_baseline_forms_three_triples(self, plan, cfg):
        rows, _ = plan()
        assert [r["group"] for r in rows] == [str(g) for g in (1, 2, 3) for _ in ROLES]
        assert [r["role"] for r in rows] == list(ROLES) * 3
        assert sorted(r["user"] for r in rows) == _all_users(cfg)

    def test_partition_property(self, plan, cfg):
        # every user of each class appears exactly once, in DL and UL alike
        for seed in range(5):
            rows, _ = plan("--seed", str(seed))
            assert sorted(r["user"] for r in rows) == _all_users(cfg)

    def test_dl_weakest_edge_in_first_cluster(self, plan, cfg):
        rows, _ = plan("--seed", "5")
        edge = _distances(rows, "DL3")
        assert edge[0] == max(edge) and edge == sorted(edge, reverse=True)
        assert _group(rows, 1)["DL3"]["user"] == f"dl_e{cfg.K_ed}"

    def test_ul_strongest_edge_in_first_cluster(self, plan):
        rows, _ = plan("--seed", "5")
        edge = _distances(rows, "UL3")
        assert edge[0] == min(edge) and edge == sorted(edge)
        assert _group(rows, 1)["UL3"]["user"] == "ul_e1"

    def test_group_ordering_within_cluster(self, plan):
        # G1 is nearer the BS than G2 in every cluster
        for seed in range(5):
            rows, _ = plan("--seed", str(seed))
            for d in ("DL", "UL"):
                assert all(a < b for a, b in zip(_distances(rows, f"{d}1"), _distances(rows, f"{d}2")))

    def test_permutation_invariance(self, plan):
        # ids are distance ranks, so no order of the drop can reach the plan
        for seed in range(5):
            rows, _ = plan("--seed", str(seed))
            for cls in ("dl_c", "dl_e", "ul_c", "ul_e"):
                ranked = sorted((int(r["user"][len(cls):]), float(r["distance"])) for r in rows
                                if r["user"].startswith(cls))
                distances = [d for _, d in ranked]
                assert distances == sorted(distances)

    def test_distances_stay_in_their_disks(self, plan, cfg):
        # center users are ranked by BS distance, edge users by surface distance
        for seed in range(5):
            rows, _ = plan("--seed", str(seed))
            center = [float(r["distance"]) for r in rows if "_c" in r["user"]]
            edge = [float(r["distance"]) for r in rows if "_e" in r["user"]]
            assert len(center) == cfg.K_cd + cfg.K_cu and all(0 <= x <= cfg.R for x in center)
            assert len(edge) == cfg.K_ed + cfg.K_eu and all(0 <= x <= cfg.R_r for x in edge)

    def test_empty_group_rejected(self, tmp_path):
        path = tmp_path / "empty.yaml"
        dump_config(baseline_config(K_cd=0, K_d1=0, K_d2=0), str(path))
        assert main(["cluster", "--config", str(path)]) == 2

    @pytest.mark.parametrize("scheme", ["cluster", "pair"])
    def test_same_seed_same_bytes(self, plan, scheme):
        _, a = plan("--scheme", scheme, "--seed", "7")
        _, b = plan("--scheme", scheme, "--seed", "7")
        _, c = plan("--scheme", scheme, "--seed", "8")
        assert a == b != c


class TestPairUsers:
    def test_ten_users_make_five_pairs(self, plan):
        cfg = baseline_config(K_cd=6, K_d1=3, K_d2=3, K_ed=4, K_eu=4)
        rows, _ = plan("--scheme", "pair", cfg=cfg)
        assert [r["group"] for r in rows] == [str(g) for g in range(1, 6) for _ in range(4)]
        assert all(list(_group(rows, g)) == ["DL1", "DL2", "UL1", "UL2"] for g in range(1, 6))
        assert sorted(r["user"] for r in rows) == _all_users(cfg)

    def test_two_users_one_pair(self, plan):
        cfg = baseline_config(K_cd=1, K_d1=1, K_d2=0, K_ed=1, M_d=1, K_cu=1, K_u1=1, K_u2=0, K_eu=1, M_u=1)
        rows, _ = plan("--scheme", "pair", cfg=cfg)
        assert [(r["group"], r["role"], r["user"]) for r in rows] == [
            ("1", "DL1", "dl_c1"), ("1", "DL2", "dl_e1"), ("1", "UL1", "ul_c1"), ("1", "UL2", "ul_e1"),
        ]

    def test_nearest_paired_with_farthest(self, plan):
        for seed in range(5):
            rows, _ = plan("--scheme", "pair", "--seed", str(seed))
            first = _group(rows, 1)
            for d in ("DL", "UL"):
                direction = [float(r["distance"]) for r in rows if r["role"].startswith(d)]
                assert float(first[f"{d}1"]["distance"]) == min(direction)
                assert float(first[f"{d}2"]["distance"]) == max(direction)

    def test_odd_count_serves_median_alone(self, plan, cfg):
        # 9 users per direction: 4 pairs, then the median (rank 5 of 9, the 5th
        # nearest center user) in a slot of its own
        rows, _ = plan("--scheme", "pair", "--seed", "6")
        assert len(rows) == 18
        lone = _group(rows, 5)
        assert [(role, r["user"]) for role, r in lone.items()] == [("DL1", "dl_c5"), ("UL1", "ul_c5")]
        for d in ("DL", "UL"):
            direction = sorted(float(r["distance"]) for r in rows if r["role"].startswith(d))
            assert float(lone[f"{d}1"]["distance"]) == direction[4]

    def test_distances_stay_in_their_disks(self, plan, cfg):
        # both classes are ranked jointly by BS distance
        for seed in range(5):
            rows, _ = plan("--scheme", "pair", "--seed", str(seed))
            assert all(float(r["distance"]) <= cfg.R for r in rows if "_c" in r["user"])
            assert all(cfg.d_br - cfg.R_r <= float(r["distance"]) <= cfg.d_br + cfg.R_r
                       for r in rows if "_e" in r["user"])

    def test_fewer_than_two_rejected(self, tmp_path, capsys):
        # one DL user makes no pair, while the UL users make three: no common schedule
        path = tmp_path / "one.yaml"
        dump_config(baseline_config(K_cd=1, K_d1=1, K_d2=0, K_ed=0, K_eu=0, M_d=1), str(path))
        assert main(["cluster", "--config", str(path), "--scheme", "pair"]) == 1
        assert "same pair count" in capsys.readouterr().err
