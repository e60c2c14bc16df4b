"""Fold construction: exhaustive post-checks are the oracle for every scheme."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_clusters, holdout_fold_views
from dtanet import splits
from dtanet.compounds import FeaturizationError, ecfp, ecfp_matrix, tanimoto
from dtanet.smiles import parse_smiles, parse_table
from dtanet.splits import (
    CompoundClustering,
    FoldAssignment,
    SplitError,
    audit_clusters,
    audit_cold,
    audit_warm,
    cluster_compounds,
    cold_cluster_split,
    cold_entity_split,
    fold_spans,
    fold_views,
    hyperopt_holdout,
    random_split,
    read_folds,
    warm_split,
    write_folds,
)
from dtanet.synthetic import unique_smiles


def random_pairs(n_records, n_drugs, n_targets, seed, min_per_entity=2):
    """Random (drug, target) record lists where every entity occurs >= 2x."""
    rng = np.random.default_rng(seed)
    drugs = [f"D{rng.integers(0, n_drugs)}" for _ in range(n_records)]
    targets = [f"T{rng.integers(0, n_targets)}" for _ in range(n_records)]
    # pad scarce entities to the minimum count
    for axis, prefix, count in ((drugs, "D", n_drugs), (targets, "T", n_targets)):
        for e in range(count):
            key = f"{prefix}{e}"
            while axis.count(key) and axis.count(key) < min_per_entity:
                axis.append(key)
    n = max(len(drugs), len(targets))
    while len(drugs) < n:
        drugs.append(f"D{rng.integers(0, n_drugs)}")
    while len(targets) < n:
        targets.append(f"T{rng.integers(0, n_targets)}")
    # the padding above may have created singletons again; drop them
    keep = [i for i in range(n)
            if drugs.count(drugs[i]) >= 2 and targets.count(targets[i]) >= 2]
    return [drugs[i] for i in keep], [targets[i] for i in keep]


class TestWarmSplit:
    def test_two_by_two_grid(self):
        drugs = ["D0", "D0", "D1", "D1"]
        targets = ["T0", "T1", "T0", "T1"]
        assignment = warm_split(drugs, targets, k=2, seed=0)
        assert audit_warm(assignment, drugs, targets) == []

    def test_single_observation_entity_is_named(self):
        drugs = ["D0", "D0", "D1"]
        targets = ["T0", "T0", "T0"]
        with pytest.raises(SplitError, match="'D1'"):
            warm_split(drugs, targets, k=2, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_fixture_constraint_audit(self, seed):
        drugs, targets = random_pairs(500, 40, 25, seed)
        k = 5
        assignment = warm_split(drugs, targets, k=k, seed=seed)
        assert audit_warm(assignment, drugs, targets) == []
        sizes = np.bincount(assignment.folds, minlength=k)
        n = len(drugs)
        assert np.all(sizes >= 0.8 * n / k - 1)
        assert np.all(sizes <= 1.2 * n / k + 1)

    def test_seed_determinism(self):
        drugs, targets = random_pairs(200, 20, 10, 3)
        a = warm_split(drugs, targets, 4, seed=9)
        b = warm_split(drugs, targets, 4, seed=9)
        assert np.array_equal(a.folds, b.folds)

    @pytest.mark.parametrize("trial", range(20))
    def test_adversarial_two_observation_entities(self, trial):
        # mostly exactly-2-observation entities, small k: the regime where
        # one-sided repair heuristics break down
        from collections import Counter

        rng = np.random.default_rng(trial)
        k = int(rng.integers(2, 7))
        drugs, targets = [], []
        for d in range(int(rng.integers(4, 25))):
            reps = 2 if rng.random() < 0.7 else int(rng.integers(2, 6))
            for _ in range(reps):
                drugs.append(f"D{d}")
                targets.append(f"T{rng.integers(0, 12)}")
        for _ in range(3):  # trim to mutual >= 2-observation records
            tc = Counter(targets)
            dc = Counter(drugs)
            keep = [i for i in range(len(drugs))
                    if dc[drugs[i]] >= 2 and tc[targets[i]] >= 2]
            drugs = [drugs[i] for i in keep]
            targets = [targets[i] for i in keep]
        if len(drugs) < 2 * k:
            pytest.skip("instance too small after trimming")
        tc = Counter(targets)
        dc = Counter(drugs)
        if not drugs or min(tc.values()) < 2 or min(dc.values()) < 2:
            pytest.skip("trim did not converge")
        assignment = warm_split(drugs, targets, k, seed=trial)
        assert audit_warm(assignment, drugs, targets) == []
        sizes = np.bincount(assignment.folds, minlength=k)
        n = len(drugs)
        assert sizes.max() <= 1.2 * n / k + 1
        assert sizes.min() >= 0.8 * n / k - 1


class TestColdEntitySplit:
    def test_five_drugs_five_folds(self):
        drugs = [f"D{i}" for i in range(5)] * 2
        targets = [f"T{i % 3}" for i in range(10)]
        assignment = cold_entity_split(drugs, targets, k=5, seed=0, axis="drug")
        per_fold = [len({drugs[i]
                         for i in np.flatnonzero(assignment.folds == f)})
                    for f in range(5)]
        assert per_fold == [1] * 5

    @pytest.mark.parametrize("axis", ["drug", "target"])
    def test_disjoint_across_folds(self, axis):
        rng = np.random.default_rng(1)
        drugs = [f"D{rng.integers(0, 30)}" for _ in range(300)]
        targets = [f"T{rng.integers(0, 20)}" for _ in range(300)]
        assignment = cold_entity_split(drugs, targets, k=5, seed=1, axis=axis)
        keys = drugs if axis == "drug" else targets
        leaks = audit_cold(assignment, keys)
        assert all(not leak for leak in leaks.values())

    def test_entity_counts_balanced_within_one(self):
        drugs = [f"D{i}" for i in range(100)] * 2
        targets = [f"T{i % 7}" for i in range(200)]
        for k in (3, 5, 7):
            assignment = cold_entity_split(drugs, targets, k=k, seed=2)
            counts = [len({drugs[i]
                           for i in np.flatnonzero(assignment.folds == f)})
                      for f in range(k)]
            assert max(counts) - min(counts) <= 1

    def test_fewer_entities_than_folds(self):
        with pytest.raises(SplitError, match="at least 4"):
            cold_entity_split(["D0", "D1"] * 2, ["T0"] * 4, k=4, seed=0)


class TestClustering:
    def test_identical_compounds_one_cluster(self):
        fp = ecfp(parse_smiles("CCO"))
        clustering = cluster_compounds([fp] * 4)
        assert len(set(clustering.labels.tolist())) == 1

    def test_disjoint_fingerprints_singletons(self):
        def bits(indices):
            b = np.zeros(512, dtype=np.uint8)
            b[list(indices)] = 1
            return b
        fps = [bits({i * 3, i * 3 + 1}) for i in range(6)]
        clustering = cluster_compounds(fps)
        assert len(set(clustering.labels.tolist())) == 6

    def test_matches_bfs_components_on_200_compounds(self):
        rng = np.random.default_rng(42)
        smiles = unique_smiles(200, rng)
        fps = ecfp_matrix(parse_table(smiles), 2, 512)
        clustering = cluster_compounds(fps, 0.7)
        n = len(fps)
        sims = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                sims[i, j] = tanimoto(fps[i], fps[j])
        oracle = brute_force_clusters(sims, 0.7)
        # same partition up to relabeling
        pairs_ours = {(i, j) for i in range(n) for j in range(n)
                      if clustering.labels[i] == clustering.labels[j]}
        pairs_oracle = {(i, j) for i in range(n) for j in range(n)
                        if oracle[i] == oracle[j]}
        assert pairs_ours == pairs_oracle

    def test_threshold_is_strict(self):
        def bits(indices):
            b = np.zeros(512, dtype=np.uint8)
            b[list(indices)] = 1
            return b
        # subset of 7 bits out of 10 -> similarity exactly 0.7: must NOT merge
        a = bits(set(range(10)))
        b = bits(set(range(7)))
        assert tanimoto(a, b) == 0.7
        clustering = cluster_compounds([a, b])
        assert clustering.labels[0] != clustering.labels[1]

    @pytest.mark.parametrize("block_rows", [1, 7, 256])
    @pytest.mark.parametrize("seed", range(4))
    def test_labels_equal_pairwise_tanimoto(self, monkeypatch, seed,
                                            block_rows):
        # 10-bit fingerprints make similarities such as 7/10 at a 0.7
        # threshold common; empty fingerprints pair at similarity 1.0
        monkeypatch.setattr(splits, "_CLUSTER_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(seed)
        n = 60
        density = rng.uniform(0.3, 0.9, size=(n, 1))
        bits = (rng.random((n, 10)) < density).astype(np.uint8)
        bits[rng.choice(n, 3, replace=False)] = 0
        fps = list(bits)
        sims = np.array([[tanimoto(a, b) for b in fps] for a in fps])
        assert (sims == 0.7).sum() > 0 and (sims > 0.7).sum() > n
        for threshold in (0.7, 0.5, 0.9):
            clustering = cluster_compounds(fps, threshold)
            assert clustering.labels.tolist() == brute_force_clusters(
                sims, threshold)

    def test_empty_fingerprints_join(self):
        empty = np.zeros(64, dtype=np.uint8)
        full = np.ones(64, dtype=np.uint8)
        labels = cluster_compounds([empty, full, empty], 0.99).labels
        assert labels.tolist() == [0, 1, 0]

    def test_mismatched_lengths_raise(self):
        def fp(n_bits):
            return np.zeros(n_bits, dtype=np.uint8)
        with pytest.raises(FeaturizationError, match="512 vs 1024"):
            cluster_compounds([fp(512), fp(512), fp(1024)])
        assert cluster_compounds([fp(1024)]).labels.tolist() == [0]
        assert cluster_compounds([]).labels.tolist() == []


class TestColdClusterSplit:
    def _clustering(self, sizes):
        labels = np.concatenate([[c] * 1 for c in range(len(sizes))])
        return CompoundClustering(labels=np.asarray(labels))

    def test_greedy_hand_run(self):
        # clusters with record counts [5, 3, 2, 1, 1] over k=2 pack to 6/6,
        # with the size-5 cluster sharing a fold with one singleton
        sizes = [5, 3, 2, 1, 1]
        compound_of_record = np.concatenate(
            [[c] * s for c, s in enumerate(sizes)])
        clustering = self._clustering(sizes)
        assignment = cold_cluster_split(compound_of_record, clustering, k=2,
                                        seed=0)
        loads = np.bincount(assignment.folds, minlength=2)
        assert loads.tolist() == [6, 6]
        fold_of_cluster = {c: int(assignment.folds[compound_of_record == c][0])
                           for c in range(5)}
        big_fold = fold_of_cluster[0]
        assert fold_of_cluster[1] != big_fold
        assert fold_of_cluster[2] != big_fold

    def test_no_cluster_spans_folds(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 12, size=40)
        clustering = CompoundClustering(labels=labels)
        compound_of_record = np.repeat(np.arange(40), 3)
        assignment = cold_cluster_split(compound_of_record, clustering, k=3,
                                        seed=5)
        assert audit_clusters(
            assignment, clustering.labels[compound_of_record]) == []

    def test_singletons_reduce_to_cold_entity(self):
        labels = np.arange(10)
        clustering = CompoundClustering(labels=labels)
        compound_of_record = np.repeat(np.arange(10), 2)
        assignment = cold_cluster_split(compound_of_record, clustering, k=5,
                                        seed=1)
        assert audit_clusters(
            assignment, clustering.labels[compound_of_record]) == []
        counts = np.bincount(assignment.folds)
        assert max(counts) - min(counts) <= 2

    def test_oversized_cluster_is_hard_error(self):
        labels = np.zeros(10, dtype=np.int64)
        labels[9] = 1
        clustering = CompoundClustering(labels=labels)
        compound_of_record = np.arange(10)
        with pytest.raises(SplitError, match="impossible"):
            cold_cluster_split(compound_of_record, clustering, k=3, seed=0)


@st.composite
def leaky_assignments(draw):
    """(assignment, drugs, targets, cluster labels) over 2-5 folds; the
    first k records, one per fold, share drug, target and cluster 0, so
    every audit has something to find."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 30))
    folds = list(range(k)) + draw(st.lists(st.integers(0, k - 1),
                                           min_size=n - k, max_size=n - k))

    def column(high):
        return [0] * k + draw(st.lists(st.integers(0, high),
                                       min_size=n - k, max_size=n - k))
    drugs, targets, labels = column(6), column(4), column(8)
    order = draw(st.permutations(range(n)))
    return (FoldAssignment(k, np.array(folds)[order], "x", 0),
            [f"D{drugs[i]}" for i in order], [f"T{targets[i]}" for i in order],
            np.array(labels)[order])


def brute_force_spans(folds, keys) -> dict:
    """key -> set of folds its records fall in, keys in first-occurrence
    order."""
    spans: dict = {}
    for fold, key in zip(folds.tolist(), keys):
        spans.setdefault(key, set()).add(fold)
    return spans


class TestAuditsAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(leaky_assignments())
    def test_spans_and_audits_equal_set_computation(self, case):
        assignment, drugs, targets, labels = case
        folds, k = assignment.folds, assignment.k
        cluster_spans = brute_force_spans(folds, labels.tolist())
        expected = [len(cluster_spans.get(g, ())) for g in
                    range(labels.max() + 1)]
        assert fold_spans(folds, labels, k).tolist() == expected
        assert audit_clusters(assignment, labels) == sorted(
            g for g, span in cluster_spans.items() if len(span) > 1)
        assert audit_clusters(assignment, labels)  # cluster 0 leaks
        assert audit_warm(assignment, drugs, targets) == [
            f"{kind} {key!r}"
            for kind, keys in (("drug", drugs), ("target", targets))
            for key, span in brute_force_spans(folds, keys).items()
            if len(span) < 2]
        for keys in (drugs, targets):
            leaks = audit_cold(assignment, keys)
            assert leaks == {
                f: ({keys[i] for i in range(len(keys)) if folds[i] == f}
                    & {keys[i] for i in range(len(keys)) if folds[i] != f})
                for f in range(k)}
            assert any(leaks.values())

    def test_spans_count_empty_groups_as_zero(self):
        spans = fold_spans(np.array([0, 1, 1, 2]), np.array([3, 3, 0, 3]), 3)
        assert spans.tolist() == [1, 0, 0, 3]
        assert fold_spans(np.array([], dtype=np.int64),
                          np.array([], dtype=np.int64), 2).tolist() == []


class TestHoldout:
    def test_sizes_and_disjointness(self):
        train, holdout = hyperopt_holdout(100, seed=0)
        assert len(holdout) == 10
        assert len(train) == 90
        assert np.intersect1d(train, holdout).size == 0

    def test_fold_view_geometry_thousand_records(self):
        views = holdout_fold_views(1000, k=5, seed=3)
        assert len(views.holdout) == 100
        for train_view, val_view in views.views:
            assert abs(train_view.size - 800) <= 1
            assert abs(val_view.size - 180) <= 1
            assert np.intersect1d(val_view, views.holdout).size == 0

    def test_validation_views_union_is_dataset_minus_holdout(self):
        views = holdout_fold_views(200, k=4, seed=1)
        union = np.sort(np.concatenate([v for _, v in views.views]))
        expected = np.setdiff1d(np.arange(200), views.holdout)
        assert np.array_equal(union, expected)

    def test_training_views_keep_holdout(self):
        views = holdout_fold_views(100, k=5, seed=2)
        for train_view, _ in views.views:
            kept = np.intersect1d(train_view, views.holdout)
            assert kept.size > 0

    def test_generic_fold_views(self):
        assignment = random_split(50, 5, seed=0)
        _, holdout = hyperopt_holdout(50, seed=0)
        for f, (train_view, val_view) in enumerate(
                fold_views(assignment, holdout)):
            fold = np.flatnonzero(assignment.folds == f)
            assert np.intersect1d(val_view, holdout).size == 0
            assert set(val_view) <= set(fold)
            assert np.intersect1d(train_view, fold).size == 0

    def test_too_small(self):
        with pytest.raises(SplitError, match="at least 10"):
            hyperopt_holdout(9, seed=0)

    @pytest.mark.parametrize("fraction", [-0.1, -0.5, 1.0, 1.5, np.nan])
    def test_fraction_outside_zero_to_one_refused(self, fraction):
        with pytest.raises(SplitError, match=r"must be in \[0, 1\)"):
            hyperopt_holdout(100, seed=0, fraction=fraction)

    def test_zero_fraction_holds_out_nothing(self):
        train, holdout = hyperopt_holdout(100, seed=0, fraction=0.0)
        assert holdout.size == 0 and np.array_equal(train, np.arange(100))


class TestFoldArtifacts:
    def test_round_trip_byte_identical(self, tmp_path):
        assignment = random_split(37, 4, seed=5)
        first = tmp_path / "folds.csv"
        second = tmp_path / "folds2.csv"
        write_folds(first, assignment)
        loaded = read_folds(first)
        assert np.array_equal(loaded.folds, assignment.folds)
        assert (loaded.k, loaded.scheme, loaded.seed) == (4, "random", 5)
        write_folds(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("row, message", [
        ("1,x", r"line 6: expected 'record_index,fold' integers, got '1,x'"),
        ("one,1", r"line 6: expected 'record_index,fold' integers"),
        ("1,7", r"line 6: fold index 7 out of range 0\.\.1"),
    ])
    def test_bad_rows_name_the_file(self, tmp_path, row, message):
        path = tmp_path / "folds.csv"
        path.write_text("# scheme=random\n# k=2\n# seed=0\n"
                        f"record_index,fold\n0,0\n{row}\n2,1\n",
                        encoding="utf-8")
        with pytest.raises(SplitError, match=rf"folds\.csv: {message}"):
            read_folds(path)

    @pytest.mark.parametrize("k, rows, message", [
        ("2", "0,99999999999999999999999\n1,1\n",
         r"line 5: fold index 99999999999999999999999 out of range 0\.\.1"),
        ("2", "0,0\n1,-1\n", r"line 6: fold index -1 out of range 0\.\.1"),
        ("99999999999999999999999", "0,0\n1,1\n",
         r"line 2: k=99999999999999999999999 leaves a fold empty: the file "
         r"has 2 records"),
    ], ids=["beyond-int64", "negative", "k-beyond-int64"])
    def test_fold_outside_the_range_names_the_line(self, tmp_path, k, rows,
                                                   message):
        path = tmp_path / "folds.csv"
        path.write_text(f"# scheme=random\n# k={k}\n# seed=0\n"
                        f"record_index,fold\n{rows}", encoding="utf-8")
        with pytest.raises(SplitError, match=rf"folds\.csv: {message}"):
            read_folds(path)

    @pytest.mark.parametrize("header, message", [
        ("# k=abc\n# seed=0\n", r"line 2: expected an integer k, got 'abc'"),
        ("# k=2\n# seed=\n", r"line 3: expected an integer seed, got ''"),
        ("# k=2\n# k=3\n# seed=0\n", r"line 3: repeated metadata key 'k'"),
        ("# k=2\n# sede=4\n# seed=0\n",
         r"line 3: unknown metadata key 'sede'"),
        ("# k=1\n# seed=0\n", r"line 2: k must be at least 2, got 1"),
        ("# k=2\n# seed=-1\n", r"line 3: seed must be at least 0, got -1"),
    ], ids=["k", "seed", "repeated-key", "unknown-key", "k-below-2",
            "negative-seed"])
    def test_bad_metadata_names_the_file_and_line(self, tmp_path, header,
                                                  message):
        path = tmp_path / "folds.csv"
        path.write_text(f"# scheme=random\n{header}"
                        "record_index,fold\n0,0\n1,1\n", encoding="utf-8")
        with pytest.raises(SplitError, match=rf"folds\.csv: {message}"):
            read_folds(path)

    def test_unknown_scheme_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "folds.csv"
        path.write_text("# k=2\n# seed=0\n# scheme=bogus\n"
                        "record_index,fold\n0,0\n1,1\n", encoding="utf-8")
        with pytest.raises(SplitError,
                           match=r"folds\.csv: line 3: unknown scheme 'bogus'"):
            read_folds(path)

    def test_every_record_assigned_once(self):
        assignment = random_split(101, 7, seed=0)
        assert assignment.folds.size == 101
        assert set(assignment.folds.tolist()) == set(range(7))

    def test_empty_fold_rejected(self):
        with pytest.raises(SplitError, match="empty fold"):
            FoldAssignment(k=3, folds=np.array([0, 1, 0, 1]), scheme="x",
                           seed=0)
