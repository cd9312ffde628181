import csv
from pathlib import Path

import numpy as np
import pytest

from maxentmil.basis import domain_from_data, make_basis, make_gauss_grid, make_tensor_grid
from maxentmil.maxent import BasisGrid, densities_from_columns, suff_stats
from maxentmil.mil import Bag, LabeledBagDataset
from maxentmil.modelio import (
    load_model,
    model_to_dict,
    read_bags,
    read_bags_csv,
    read_bags_jsonl,
    write_bags_jsonl,
    write_json,
    write_matrix_csv,
)


@pytest.fixture()
def dataset(rng):
    bags = tuple(
        Bag(f"bag{i}", "pos" if i % 2 else "neg", rng.uniform(-1, 1, (4 + i, 2)))
        for i in range(3)
    )
    return LabeledBagDataset(bags=bags)


class TestBagFiles:
    def test_jsonl_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "bags.jsonl"
        write_bags_jsonl(dataset, path)
        back = read_bags_jsonl(path)
        assert back.bag_ids == dataset.bag_ids
        assert back.labels == dataset.labels
        for a, b in zip(back.bags, dataset.bags):
            np.testing.assert_array_equal(a.instances, b.instances)

    def test_jsonl_write_is_byte_stable(self, dataset, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_bags_jsonl(dataset, p1)
        write_bags_jsonl(read_bags_jsonl(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsonl_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"bag_id": "ok", "instances": [[1, 2]]}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_bags_jsonl(path)

    def test_jsonl_empty_bag_named(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"bag_id": "hollow", "instances": []}\n')
        with pytest.raises(ValueError, match="hollow"):
            read_bags_jsonl(path)

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "bags.csv"
        path.write_text(
            "bag_id,label,x1,x2\n"
            "b1,pos,0.0,1.0\n"
            "b1,pos,0.5,0.5\n"
            "b2,neg,1.0,0.0\n"
        )
        ds = read_bags_csv(path)
        assert ds.bag_ids == ("b1", "b2")
        assert ds.bags[0].instances.shape == (2, 2)
        assert ds.labels == ("pos", "neg")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_jsonl_non_finite_instance_names_file_line_and_bag(self, tmp_path, literal):
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"bag_id": "ok", "instances": [[1, 2]]}\n'
            f'{{"bag_id": "spoiled", "instances": [[0.5, {literal}]]}}\n'
        )
        with pytest.raises(ValueError, match=r"nan\.jsonl: line 2: bag 'spoiled'"):
            read_bags_jsonl(path)

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
    def test_csv_non_finite_instance_names_file_line_and_bag(self, tmp_path, literal):
        path = tmp_path / "nan.csv"
        path.write_text(
            "bag_id,label,x1,x2\n"
            "b1,pos,0.0,1.0\n"
            f"b2,neg,{literal},0.0\n"
        )
        with pytest.raises(ValueError, match=r"nan\.csv: line 3: bag 'b2'"):
            read_bags_csv(path)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("idcol,x1\n1,2\n")
        with pytest.raises(ValueError, match="line 1"):
            read_bags_csv(path)

    def test_read_bags_dispatches_on_suffix(self, dataset, tmp_path):
        path = tmp_path / "bags.jsonl"
        write_bags_jsonl(dataset, path)
        assert read_bags(path).bag_ids == dataset.bag_ids


class TestModelFile:
    def test_roundtrip(self, dataset, tmp_path):
        spec = make_basis(2, 6, seed=3)
        domain = domain_from_data(dataset.pooled_instances(), 0.1)
        grid = make_gauss_grid(domain, 32)
        engine = BasisGrid(spec, grid)
        stats = [suff_stats(b.instances, spec, b.bag_id) for b in dataset.bags]
        lam = np.column_stack([0.1 * np.arange(6), np.zeros(6), -0.05 * np.ones(6)])
        densities = densities_from_columns(
            lam, [s.bag_id for s in stats], spec, grid, engine
        )
        path = tmp_path / "model.json"
        write_json(
            path,
            model_to_dict(spec, domain, grid, densities, [s.n for s in stats], "mde"),
        )
        spec2, domain2, grid2, densities2, ns2, raw = load_model(path)
        np.testing.assert_array_equal(spec2.freqs, spec.freqs)
        np.testing.assert_allclose(domain2.lo, domain.lo)
        assert grid2.kind == grid.kind == "gauss-legendre" and grid2.size == grid.size
        np.testing.assert_array_equal(grid2.nodes, grid.nodes)
        np.testing.assert_array_equal(grid2.weights, grid.weights)
        assert ns2 == [s.n for s in stats]
        for d0, d1 in zip(densities, densities2):
            assert d0.bag_id == d1.bag_id
            np.testing.assert_array_equal(d0.lam, d1.lam)
            assert d0.logZ == d1.logZ
        assert raw["solver"] == "mde"

    def test_write_read_write_byte_stable(self, dataset, tmp_path):
        spec = make_basis(2, 4, seed=1)
        domain = domain_from_data(dataset.pooled_instances(), 0.1)
        grid = make_tensor_grid(domain, 16)
        densities = densities_from_columns(
            np.zeros((4, 1)), ["solo"], spec, grid, BasisGrid(spec, grid)
        )
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_json(p1, model_to_dict(spec, domain, grid, densities, [5], "mde"))
        spec2, domain2, grid2, densities2, ns2, _ = load_model(p1)
        write_json(p2, model_to_dict(spec2, domain2, grid2, densities2, ns2, "mde"))
        assert p1.read_bytes() == p2.read_bytes()

    def test_tensor_grid_model_still_loads(self):
        # A model written with a midpoint grid before Gauss-Legendre became
        # the default: its grid is rebuilt, and its densities' logZ match it.
        path = Path(__file__).parent / "data" / "model_tensor_grid.json"
        spec, domain, grid, densities, ns, raw = load_model(path)
        assert raw["grid"] == {"kind": "tensor-grid", "points_per_axis": 16}
        assert grid.kind == "tensor-grid"
        np.testing.assert_array_equal(grid.nodes, make_tensor_grid(domain, 16).nodes)
        lam = np.column_stack([d.lam for d in densities])
        np.testing.assert_allclose(
            BasisGrid(spec, grid).log_partition_many(lam), [d.logZ for d in densities],
            rtol=1e-12,
        )
        assert len(ns) == 4

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rec: rec.update(format_version=99), "format_version must be 1, got 99"),
            (lambda rec: rec.pop("format_version"), "format_version must be 1, got None"),
            (lambda rec: rec.pop("basis"), "model file has no key 'basis'"),
            (lambda rec: rec["bags"][0].pop("lambda"), "model file has no key 'lambda'"),
        ],
        ids=["format_version-99", "no-format_version", "no-basis", "no-bag-lambda"],
    )
    def test_bad_model_file_named(self, dataset, tmp_path, edit, message):
        spec = make_basis(2, 4, seed=1)
        domain = domain_from_data(dataset.pooled_instances(), 0.1)
        grid = make_tensor_grid(domain, 16)
        densities = densities_from_columns(
            np.zeros((4, 1)), ["solo"], spec, grid, BasisGrid(spec, grid)
        )
        rec = model_to_dict(spec, domain, grid, densities, [5], "mde")
        edit(rec)
        path = tmp_path / "model.json"
        write_json(path, rec)
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {message}"


def test_matrix_csv_roundtrip(tmp_path, rng):
    mat = rng.standard_normal((3, 3))
    mat = 0.5 * (mat + mat.T)
    np.fill_diagonal(mat, 0.0)
    path = tmp_path / "matrix.csv"
    write_matrix_csv(mat, ["x", "y", "z"], path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["bag_id", "x", "y", "z"]
    assert [row[0] for row in rows] == ["x", "y", "z"]
    np.testing.assert_array_equal([[float(v) for v in row[1:]] for row in rows], mat)
