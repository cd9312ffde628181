import numpy as np
import pytest

from maxentmil.experiments import synth_two_class_bags
from maxentmil.mil import (
    Bag,
    CitationKnnConfig,
    LabeledBagDataset,
    PipelineConfig,
    avg_hausdorff,
    citation_knn,
    citation_knn_precomputed,
    distance_matrix,
    kde_fit,
    kde_sym_kl,
    kernel_matrix,
    kfold_evaluate,
    pca_apply,
    pca_apply_instances,
    pca_fit,
    evaluate_split,
    stratified_folds,
)


def tiny_dataset(rng, n_a=6, n_b=2, n_inst=20):
    bags = []
    for i in range(n_a):
        bags.append(Bag(f"a{i}", "a", rng.normal(0.0, 1.0, (n_inst, 2))))
    for i in range(n_b):
        bags.append(Bag(f"b{i}", "b", rng.normal(3.0, 1.0, (n_inst, 2))))
    return LabeledBagDataset(bags=tuple(bags))


class TestPca:
    def test_full_rank_preserves_distances(self, rng):
        data = rng.standard_normal((60, 3))
        model = pca_fit(data, 3)
        proj = pca_apply_instances(model, data)
        orig = np.linalg.norm(data[:30] - data[30:], axis=1)
        new = np.linalg.norm(proj[:30] - proj[30:], axis=1)
        np.testing.assert_allclose(new, orig, atol=1e-10)

    def test_rank_one_data_reconstructs(self, rng):
        t = rng.standard_normal(40)
        v = rng.standard_normal(3)
        data = np.outer(t, v)
        model = pca_fit(data, 1)
        proj = pca_apply_instances(model, data)
        recon = model.mean + proj @ model.components.T
        np.testing.assert_allclose(recon, data, atol=1e-10)

    def test_projected_covariance_diagonal(self, rng):
        data = rng.standard_normal((200, 4)) @ rng.standard_normal((4, 4))
        proj = pca_apply_instances(pca_fit(data, 3), data)
        cov = np.cov(proj.T)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8

    def test_sign_convention_deterministic(self, rng):
        data = rng.standard_normal((50, 3))
        a = pca_fit(data, 2)
        b = pca_fit(data.copy(), 2)
        np.testing.assert_array_equal(a.components, b.components)
        for j in range(2):
            peak = np.argmax(np.abs(a.components[:, j]))
            assert a.components[peak, j] > 0

    def test_r_validation(self, rng):
        with pytest.raises(ValueError):
            pca_fit(rng.standard_normal((10, 2)), 3)

    def test_dataset_apply(self, rng):
        ds = tiny_dataset(rng)
        model = pca_fit(ds.pooled_instances(), 2)
        out = pca_apply(model, ds)
        assert out.d == 2 and out.bag_ids == ds.bag_ids


class TestAvgHausdorff:
    def test_identical_bags(self, rng):
        a = rng.standard_normal((15, 2))
        assert avg_hausdorff(a, a) == 0.0

    def test_two_points_1d(self):
        assert avg_hausdorff(np.array([[0.0]]), np.array([[3.0]])) == pytest.approx(3.0)

    def test_matches_bruteforce(self, rng):
        a = rng.standard_normal((13, 3))
        b = rng.standard_normal((9, 3))
        forward = sum(min(np.linalg.norm(x - y) for y in b) for x in a)
        backward = sum(min(np.linalg.norm(y - x) for x in a) for y in b)
        expected = (forward + backward) / (13 + 9)
        assert avg_hausdorff(a, b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 7, 8, 33])
    def test_bitwise_equal_to_cdist(self, rng, d):
        # Distances accumulate per coordinate in cdist's order; a reduction
        # over the coordinate axis would differ in the last bits from d = 8.
        # Between two single points the average Hausdorff distance is their
        # distance, exactly.
        from scipy.spatial.distance import cdist

        a = rng.standard_normal((21, d)) * 3.0
        b = rng.standard_normal((17, d))
        pairwise = [[avg_hausdorff(x[None], y[None]) for y in b] for x in a]
        np.testing.assert_array_equal(pairwise, cdist(a, b))
        expected = (
            float(cdist(a, b).min(axis=1).sum()) + float(cdist(b, a).min(axis=1).sum())
        ) / (21 + 17)
        assert avg_hausdorff(a, b) == expected
        # Bags large enough to be processed in many row chunks.
        a = rng.standard_normal((300, d))
        b = rng.standard_normal((2000, d))
        expected = (
            float(cdist(a, b).min(axis=1).sum()) + float(cdist(b, a).min(axis=1).sum())
        ) / (300 + 2000)
        assert avg_hausdorff(a, b) == expected

    def test_symmetric(self, rng):
        a = rng.standard_normal((8, 2))
        b = rng.standard_normal((5, 2))
        assert avg_hausdorff(a, b) == pytest.approx(avg_hausdorff(b, a), abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            avg_hausdorff(np.zeros((0, 2)), np.zeros((3, 2)))


class TestKde:
    def test_single_instance_bump(self):
        point = np.array([[0.7, -1.2]])
        model = kde_fit(point)
        probes = np.array([[0.7, -1.2], [0.0, 0.0], [1.5, -1.2], [0.7, 0.5]])
        vals = model.log_pdf(probes)
        assert vals.argmax() == 0
        np.testing.assert_allclose(model.bandwidths, 1.144, atol=1e-12)

    def test_self_divergence_zero(self, grid2d, rng):
        model = kde_fit(rng.uniform(-2, 2, (50, 2)))
        assert abs(kde_sym_kl(model, model, grid2d)) <= 1e-8

    def test_symmetry_and_positivity(self, grid2d, rng):
        f = kde_fit(rng.uniform(-2, 0, (40, 2)))
        g = kde_fit(rng.uniform(0, 2, (40, 2)))
        d = kde_sym_kl(f, g, grid2d)
        assert d > 0
        assert d == pytest.approx(kde_sym_kl(g, f, grid2d), abs=1e-10)

    def test_bandwidth_rate(self, rng):
        # 32x more data roughly halves the bandwidth (n^(-1/5) rule).
        small = kde_fit(rng.standard_normal((100, 1)))
        big = kde_fit(rng.standard_normal((3200, 1)))
        ratio = small.bandwidths[0] / big.bandwidths[0]
        assert 1.8 <= ratio <= 2.2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kde_fit(np.zeros((0, 2)))


class TestKernelMatrix:
    def test_unit_diagonal_and_symmetry(self, rng):
        bags = [rng.standard_normal((10, 2)) for _ in range(4)]
        k = kernel_matrix(bags, "hausdorff", gamma=0.5)
        np.testing.assert_allclose(np.diag(k), 1.0)
        np.testing.assert_allclose(k, k.T)
        assert ((k > 0) & (k <= 1)).all()

    def test_identical_bags_entry_one(self, rng):
        a = rng.standard_normal((10, 2))
        k = kernel_matrix([a, a.copy()], "hausdorff", gamma=2.0)
        assert k[0, 1] == pytest.approx(1.0)

    def test_large_gamma_kills_offdiagonal(self, rng):
        bags = [rng.standard_normal((10, 2)) + i for i in range(3)]
        k = kernel_matrix(bags, "hausdorff", gamma=1e6)
        off = k[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 1e-12

    def test_elementwise_definition(self, rng):
        bags = [rng.standard_normal((8, 2)) for _ in range(3)]
        d = distance_matrix(bags, "hausdorff")
        np.testing.assert_allclose(
            kernel_matrix(bags, "hausdorff", gamma=0.3), np.exp(-0.3 * d), atol=1e-14
        )

    def test_kind_validation(self, rng):
        bags = [rng.standard_normal((5, 2))]
        with pytest.raises(ValueError):
            kernel_matrix(bags, "kl-cmen", gamma=1.0)
        with pytest.raises(ValueError):
            kernel_matrix(bags, "nope", gamma=1.0)
        with pytest.raises(ValueError):
            kernel_matrix(bags, "hausdorff", gamma=0.0)
        with pytest.raises(ValueError):
            distance_matrix([kde_fit(b) for b in bags], "kl-kde", grid=None)


class TestCitationKnn:
    def test_nearest_neighbor_reduction(self):
        labels = ["a", "b", "b"]
        ids = ["t0", "t1", "t2"]
        d_train = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        cfg = CitationKnnConfig(k=1, k_prime=0)
        pred = citation_knn_precomputed(
            d_train, np.array([0.2, 0.5, 0.9]), labels, ids, cfg
        )
        assert pred == "a"

    def test_identical_train_bag_wins(self, rng):
        items = [rng.standard_normal((6, 2)) for _ in range(3)]
        labels = ["x", "y", "y"]
        pred = citation_knn(
            items, labels, items[0].copy(), CitationKnnConfig(k=1, k_prime=0),
            metric=avg_hausdorff,
        )
        assert pred == "x"

    def test_hand_built_citers_and_tie_rule(self):
        labels = ["a", "a", "b"]
        ids = ["t0", "t1", "t2"]
        d_train = np.array(
            [[0.0, 0.2, 0.8], [0.2, 0.0, 0.7], [0.8, 0.7, 0.0]]
        )
        d_query = np.array([0.3, 0.9, 0.5])
        # k=1: reference t0 (a). k'=1: only t2 cites the query (b).
        # 1-1 tie resolves by smaller summed distance: a (0.3) < b (0.5).
        pred = citation_knn_precomputed(
            d_train, d_query, labels, ids, CitationKnnConfig(k=1, k_prime=1)
        )
        assert pred == "a"
        # k'=2 adds t0 as a citer; "a" then wins outright.
        pred = citation_knn_precomputed(
            d_train, d_query, labels, ids, CitationKnnConfig(k=1, k_prime=2)
        )
        assert pred == "a"

    def test_train_order_invariance(self, rng):
        items = [rng.standard_normal((7, 2)) for _ in range(6)]
        labels = ["a", "b", "a", "b", "a", "b"]
        ids = [f"t{i}" for i in range(6)]
        query = rng.standard_normal((7, 2))
        cfg = CitationKnnConfig(k=3, k_prime=2)
        pred = citation_knn(items, labels, query, cfg, avg_hausdorff, ids=ids)
        perm = rng.permutation(6)
        pred_perm = citation_knn(
            [items[i] for i in perm], [labels[i] for i in perm], query, cfg,
            avg_hausdorff, ids=[ids[i] for i in perm],
        )
        assert pred == pred_perm

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            citation_knn_precomputed(
                np.zeros((2, 2)), np.zeros(2), ["a", "b"], ["x", "y"],
                CitationKnnConfig(k=3, k_prime=0),
            )


class TestKfold:
    def test_folds_partition_bags(self, rng):
        ds = tiny_dataset(rng)
        folds = stratified_folds(ds, 4, seed=0)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(len(ds.bags)))

    def test_majority_vote_classifier(self, rng):
        # k = size of every training fold and k' = 0 makes the vote the
        # training majority; stratified folds keep test proportions equal
        # to the global label mix, so accuracy equals the majority share.
        ds = tiny_dataset(rng, n_a=6, n_b=2)
        cfg = PipelineConfig(
            distance="hausdorff", knn=CitationKnnConfig(k=6, k_prime=0)
        )
        result = kfold_evaluate(ds, folds=4, cfg=cfg, seed=0)
        assert all(r["predicted"] == "a" for r in result.predictions)
        assert result.mean_accuracy == pytest.approx(6 / 8)

    def test_deterministic(self, rng):
        ds = tiny_dataset(rng)
        cfg = PipelineConfig(distance="hausdorff", knn=CitationKnnConfig(k=3, k_prime=2))
        a = kfold_evaluate(ds, folds=4, cfg=cfg, seed=5)
        b = kfold_evaluate(ds, folds=4, cfg=cfg, seed=5)
        assert a.predictions == b.predictions
        assert a.fold_accuracies == b.fold_accuracies

    def test_missing_class_warns_but_runs(self, rng):
        bags = tuple(
            Bag(f"x{i}", "x", rng.standard_normal((5, 2))) for i in range(4)
        ) + (Bag("lone", "y", rng.standard_normal((5, 2))),)
        ds = LabeledBagDataset(bags=bags)
        cfg = PipelineConfig(distance="hausdorff", knn=CitationKnnConfig(k=2, k_prime=0))
        with pytest.warns(UserWarning, match="absent"):
            result = kfold_evaluate(ds, folds=5, cfg=cfg, seed=0)
        assert len(result.predictions) == 5

    def test_scale_invariance_with_standardization(self, rng):
        ds = tiny_dataset(rng, n_a=4, n_b=4, n_inst=60)
        scaled = LabeledBagDataset(
            bags=tuple(
                Bag(b.bag_id, b.label, 5.0 * b.instances) for b in ds.bags
            )
        )
        cfg = PipelineConfig(
            distance="kl-mde", m=8, pca_dims=2,
            knn=CitationKnnConfig(k=3, k_prime=2),
        )
        a = kfold_evaluate(ds, folds=4, cfg=cfg, seed=1)
        b = kfold_evaluate(scaled, folds=4, cfg=cfg, seed=1)
        assert a.predictions == b.predictions

    def test_library_newton_tolerance_fits_stalled_bag(self):
        # At grad_tol 1e-8, bag b013 of this split stalls at a gradient of
        # about 2e-6; the third relaxation rung (1e-5) every column fitter
        # shares lets the split finish instead of raising.
        from maxentmil.maxent import NewtonConfig

        ds, _ = synth_two_class_bags(40, 500, 16, seed=2)
        test_idx = stratified_folds(ds, 10, seed=2)[0]
        train = ds.subset([i for i in range(len(ds.bags)) if i not in set(test_idx)])
        test = ds.subset(test_idx)
        cfg = PipelineConfig(distance="kl-mde", newton=NewtonConfig(grad_tol=1e-8))
        records = evaluate_split(train, test, cfg)
        assert [r["bag_id"] for r in records] == list(test.bag_ids)

    def test_kl_kde_split_evaluates_each_kde_once(self, rng, monkeypatch):
        from maxentmil.basis import domain_from_data, make_auto_grid
        from maxentmil.mil import KdeModel

        ds = tiny_dataset(rng, n_a=4, n_b=4, n_inst=30)
        train, test = ds.subset([0, 1, 2, 4, 5, 6]), ds.subset([3, 7])
        cfg = PipelineConfig(
            distance="kl-kde", standardize=False, grid_points=24,
            knn=CitationKnnConfig(k=3, k_prime=2),
        )
        calls = []
        original = KdeModel.log_pdf

        def counting(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(KdeModel, "log_pdf", counting)
        records = evaluate_split(train, test, cfg)
        assert len(calls) == len(train.bags) + len(test.bags)

        grid = make_auto_grid(
            domain_from_data(train.pooled_instances(), cfg.margin),
            cfg.grid_points, cfg.mc_nodes, cfg.basis_seed,
        )
        kdes = [kde_fit(b.instances) for b in train.bags]
        d_train = distance_matrix(kdes, "kl-kde", grid=grid)
        expected = []
        for tb in test.bags:
            d_query = np.array([kde_sym_kl(kde_fit(tb.instances), k, grid) for k in kdes])
            pred = citation_knn_precomputed(
                d_train, d_query, list(train.labels), list(train.bag_ids), cfg.knn
            )
            expected.append({"bag_id": tb.bag_id, "true": tb.label, "predicted": pred})
        assert records == expected

    @pytest.mark.slow
    def test_two_class_fixture_high_accuracy(self):
        ds, _ = synth_two_class_bags(40, 500, 16, seed=0)
        cfg = PipelineConfig(distance="kl-mde", m=16)
        result = kfold_evaluate(ds, folds=10, cfg=cfg, seed=0)
        assert result.mean_accuracy >= 0.9


def test_dataset_validation(rng):
    with pytest.raises(ValueError):
        LabeledBagDataset(bags=())
    with pytest.raises(ValueError):
        LabeledBagDataset(
            bags=(
                Bag("a", "x", rng.standard_normal((3, 2))),
                Bag("a", "x", rng.standard_normal((3, 2))),
            )
        )
    with pytest.raises(ValueError):
        Bag("empty", "x", np.zeros((0, 2)))
