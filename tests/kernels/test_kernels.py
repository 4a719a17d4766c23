"""Host kernel timing and the verification harness."""

import numpy as np
import pytest

from repro.formats import NaiveCSR
from repro.kernels import (
    make_x,
    spmv_reference,
    time_spmv,
    verify_all_formats,
    verify_format,
)


class TestMakeX:
    def test_deterministic(self):
        np.testing.assert_array_equal(make_x(10, seed=1), make_x(10, seed=1))

    def test_away_from_zero(self):
        x = make_x(1000)
        assert x.min() >= 0.5


class TestTiming:
    def test_timing_fields(self, regular_matrix):
        fmt = NaiveCSR.from_csr(regular_matrix)
        t = time_spmv(fmt, iterations=3, warmup=1)
        assert t.seconds_per_iter > 0
        assert t.gflops > 0
        assert t.nnz == regular_matrix.nnz
        assert t.format == "Naive-CSR"
        assert t.gflops == pytest.approx(
            2.0 * t.nnz / t.seconds_per_iter / 1e9, rel=1e-9
        )

    def test_bad_iterations(self, regular_matrix):
        fmt = NaiveCSR.from_csr(regular_matrix)
        with pytest.raises(ValueError):
            time_spmv(fmt, iterations=0)


class TestVerify:
    def test_reference_matches_scipy(self, regular_matrix):
        x = make_x(regular_matrix.n_cols)
        np.testing.assert_allclose(
            spmv_reference(regular_matrix, x),
            regular_matrix.to_scipy() @ x,
        )

    def test_all_formats_ok_on_regular(self, regular_matrix):
        result = verify_all_formats(regular_matrix)
        assert result.all_ok
        assert result["Naive-CSR"] == "ok"

    def test_refusals_are_not_failures(self, irregular_matrix):
        result = verify_all_formats(irregular_matrix)
        assert result.all_ok  # DIA refuses; refusal is acceptable
        assert result["DIA"].startswith("refused")

    def test_broken_kernel_detected(self, regular_matrix, monkeypatch):
        from repro.formats import csr

        def bad_spmv(self, x):
            return np.zeros(self.mat.n_rows)

        monkeypatch.setattr(csr.NaiveCSR, "spmv", bad_spmv)
        out = verify_format(regular_matrix, "Naive-CSR")
        assert out.startswith("FAILED")

    def test_round_trip_loss_detected(self, regular_matrix, monkeypatch):
        from repro.core.matrix import CSRMatrix
        from repro.formats import csr

        def lossy_to_csr(self):
            # Drop row 0's first entry; SpMV itself stays correct.
            mat = self.mat
            indptr = mat.indptr.copy()
            indptr[1:] -= 1
            return CSRMatrix(mat.n_rows, mat.n_cols, indptr,
                             mat.indices[1:], mat.data[1:])

        monkeypatch.setattr(csr.NaiveCSR, "to_csr", lossy_to_csr)
        assert verify_format(regular_matrix, "Naive-CSR") == (
            "FAILED: CSR round-trip deviates"
        )

    def test_round_trip_never_densifies(self, regular_matrix, monkeypatch):
        from repro.core.matrix import CSRMatrix

        def no_dense(self):
            raise AssertionError("dense copy built")

        monkeypatch.setattr(CSRMatrix, "to_dense", no_dense)
        result = verify_all_formats(regular_matrix)
        assert result.all_ok
        assert "refused" not in result["Naive-CSR"]

    def test_subset_selection(self, regular_matrix):
        result = verify_all_formats(regular_matrix, names=["COO", "CSR5"])
        assert set(result) == {"COO", "CSR5"}
