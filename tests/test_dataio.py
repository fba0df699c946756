import numpy as np
import pytest

from vdwgrating import (
    AngularScan,
    DataFormatError,
    OrderIntensities,
)
from vdwgrating.dataio import (
    NormalizationWarning,
    load_orders_csv,
    load_polarizability_table,
    load_scan_csv,
    read_report,
    save_eps_csv,
    save_orders_csv,
    save_scan_csv,
    write_report,
)


def _orders(with_sigma):
    vals = np.array([0.5, 0.3, 0.2])
    sig = np.array([1e-3, 2e-3, 3e-3]) if with_sigma else None
    return OrderIntensities(orders=(-1, 0, 1), intensity=vals, sigma=sig)


class TestOrdersCsv:
    @pytest.mark.parametrize("with_sigma", [False, True])
    def test_roundtrip_lossless(self, tmp_path, with_sigma):
        path = tmp_path / "orders.csv"
        original = _orders(with_sigma)
        save_orders_csv(path, original)
        back = load_orders_csv(path)
        assert back.orders == original.orders
        assert np.array_equal(back.intensity, original.intensity)
        if with_sigma:
            assert np.array_equal(back.sigma, original.sigma)
        else:
            assert back.sigma is None

    def test_rows_sorted_by_order(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("n,intensity\n2,0.25\n0,0.5\n1,0.25\n")
        back = load_orders_csv(path)
        assert back.orders == (0, 1, 2)
        assert back[0] == 0.5

    def test_unnormalized_warns_and_renormalizes(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("n,intensity\n0,2.0\n1,2.0\n")
        with pytest.warns(NormalizationWarning):
            back = load_orders_csv(path)
        assert back[0] == pytest.approx(0.5)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("# provenance note\nn,intensity\n0,0.6\n1,0.4\n")
        assert load_orders_csv(path).orders == (0, 1)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("order,value\n0,1.0\n")
        with pytest.raises(DataFormatError) as err:
            load_orders_csv(path)
        assert err.value.line == 1

    def test_non_integer_order_line_number(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("n,intensity\n0,0.5\n1.5,0.5\n")
        with pytest.raises(DataFormatError) as err:
            load_orders_csv(path)
        assert err.value.line == 3

    def test_duplicate_order(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("n,intensity\n0,0.5\n0,0.5\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_orders_csv(path)

    def test_negative_intensity(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("n,intensity\n0,1.5\n1,-0.5\n")
        with pytest.raises(DataFormatError, match="negative"):
            load_orders_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("n,intensity\n0,0.5,0.01\n")
        with pytest.raises(DataFormatError) as err:
            load_orders_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["0.0", "1e308"])
    def test_sum_must_be_positive_and_finite(self, tmp_path, value):
        path = tmp_path / "orders.csv"
        path.write_text(f"n,intensity\n0,{value}\n1,{value}\n")
        with pytest.raises(DataFormatError, match="sum to"):
            load_orders_csv(path)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("n,intensity\n")
        with pytest.raises(DataFormatError, match="no data"):
            load_orders_csv(path)


class TestScanCsv:
    def test_roundtrip_with_metadata(self, tmp_path):
        path = tmp_path / "scan.csv"
        scan = AngularScan(np.linspace(-1e-3, 1e-3, 5),
                           np.array([1.0, 4.0, 9.0, 4.0, 1.0]),
                           n_slits=100)
        save_scan_csv(path, scan, metadata={"seed": 7})
        back, meta = load_scan_csv(path)
        assert np.array_equal(back.angles, scan.angles)
        assert np.array_equal(back.values, scan.values)
        assert back.n_slits == 100
        assert meta["seed"] == "7"
        assert meta["n_slits"] == "100"

    def test_n_slits_defaults_to_one(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("theta_rad,counts\n0.0,1.0\n0.1,2.0\n")
        back, meta = load_scan_csv(path)
        assert back.n_slits == 1
        assert meta == {}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("angle,counts\n0.0,1.0\n")
        with pytest.raises(DataFormatError) as err:
            load_scan_csv(path)
        assert err.value.line == 1

    def test_non_monotone_angles(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("theta_rad,counts\n0.0,1.0\n0.2,1.0\n0.1,1.0\n")
        with pytest.raises(DataFormatError, match="increasing") as err:
            load_scan_csv(path)
        assert err.value.line == 4

    def test_non_numeric_row(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("theta_rad,counts\n0.0,1.0\nnan?,2.0\n")
        with pytest.raises(DataFormatError) as err:
            load_scan_csv(path)
        assert err.value.line == 3

    def test_negative_count_line_number(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("# n_slits = 5\ntheta_rad,counts\n0.0,1.0\n"
                        "0.1,-2.0\n")
        with pytest.raises(DataFormatError, match="negative") as err:
            load_scan_csv(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "many"])
    def test_bad_n_slits_names_comment_line(self, tmp_path, value):
        path = tmp_path / "scan.csv"
        path.write_text(f"theta_rad,counts\n# n_slits = {value}\n"
                        "0.0,1.0\n0.1,2.0\n")
        with pytest.raises(DataFormatError, match="n_slits") as err:
            load_scan_csv(path)
        assert err.value.line == 2


class TestPolarizabilityTable:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "alpha.dat"
        path.write_text(
            "# alpha(iE) for a model atom\n"
            "0.0   0.05   # static limit\n"
            "1.0   0.04\n"
            "10.0  0.001\n")
        table = load_polarizability_table(path)
        assert table.alpha0 == pytest.approx(0.05)
        assert table(10.0) == pytest.approx(0.001)

    def test_first_energy_must_be_zero(self, tmp_path):
        path = tmp_path / "alpha.dat"
        path.write_text("0.5 0.05\n1.0 0.04\n")
        with pytest.raises(DataFormatError, match="static"):
            load_polarizability_table(path)

    def test_decreasing_energy_line_number(self, tmp_path):
        path = tmp_path / "alpha.dat"
        path.write_text("0.0 0.05\n2.0 0.04\n1.0 0.03\n")
        with pytest.raises(DataFormatError) as err:
            load_polarizability_table(path)
        assert err.value.line == 3

    def test_increasing_alpha_rejected(self, tmp_path):
        path = tmp_path / "alpha.dat"
        path.write_text("0.0 0.05\n1.0 0.06\n")
        with pytest.raises(DataFormatError, match="non-increasing") as err:
            load_polarizability_table(path)
        assert err.value.line == 2

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "alpha.dat"
        path.write_text("0.0 0.05 extra\n")
        with pytest.raises(DataFormatError) as err:
            load_polarizability_table(path)
        assert err.value.line == 1

    def test_first_energy_line_after_comment(self, tmp_path):
        path = tmp_path / "alpha.dat"
        path.write_text("# no static row\n0.5 0.05\n1.0 0.04\n")
        with pytest.raises(DataFormatError, match="static") as err:
            load_polarizability_table(path)
        assert err.value.line == 2

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "alpha.dat"
        path.write_text("0.0 0.05\n")
        with pytest.raises(DataFormatError, match="two table rows"):
            load_polarizability_table(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("loader, text", [
    (load_orders_csv, "n,intensity\n1,0.5\n2,{}\n"),
    (load_scan_csv, "theta_rad,counts\n0.0,1.0\n0.1,{}\n"),
    (load_polarizability_table, "# alpha(iE)\n0.0 0.05\n1.0 {}\n"),
], ids=["orders", "scan", "alpha"])
def test_non_finite_cell_names_its_line(tmp_path, loader, text, cell):
    path = tmp_path / "data.txt"
    path.write_text(text.format(cell))
    with pytest.raises(DataFormatError, match="finite") as err:
        loader(path)
    assert err.value.line == 3


class TestGoldenBytes:
    """The exact bytes each writer produces."""

    def test_orders(self, tmp_path):
        path = tmp_path / "orders.csv"
        save_orders_csv(path, OrderIntensities(
            (-1, 0, 1), np.array([0.25, 0.5, 0.25])))
        assert path.read_text() == (
            "n,intensity\n-1,0.25\n0,0.5\n1,0.25\n")
        save_orders_csv(path, OrderIntensities(
            (-1, 0, 1), np.array([0.25, 0.5, 0.25]),
            np.array([1e-3, 0.1, 1 / 3])))
        assert path.read_text() == (
            "n,intensity,sigma\n"
            "-1,0.25,0.001\n"
            "0,0.5,0.1\n"
            "1,0.25,0.3333333333333333\n")

    def test_scan_with_metadata(self, tmp_path):
        path = tmp_path / "scan.csv"
        scan = AngularScan(np.array([-1e-3, 0.0, 2e-3]),
                           np.array([1.0, 123456.789, 0.0]), n_slits=7)
        save_scan_csv(path, scan, metadata={"seed": 3,
                                            "noise_fraction": "0.01"})
        assert path.read_text() == (
            "# n_slits = 7\n"
            "# seed = 3\n"
            "# noise_fraction = 0.01\n"
            "theta_rad,counts\n"
            "-0.001,1.0\n"
            "0.0,123456.789\n"
            "0.002,0.0\n")

    def test_eps_dump(self, tmp_path):
        path = tmp_path / "eps.csv"
        save_eps_csv(path, np.array([0.0, 1e-3, 1e4]),
                     np.array([3.8677557917382193, 2.5e-05, 1.0]))
        assert path.read_text() == (
            "energy_ev,eps_iw\n"
            "0.0,3.8677557917382193\n"
            "0.001,2.5e-05\n"
            "10000.0,1.0\n")


class TestReport:
    def test_roundtrip_preserves_order_and_values(self, tmp_path):
        path = tmp_path / "report.txt"
        items = [("tool.name", "vdwgrating"),
                 ("result.c3_mev_nm3", repr(4.0999999999)),
                 ("config.beam.species", "He*")]
        write_report(path, items)
        back = read_report(path)
        assert list(back.items()) == [(k, str(v)) for k, v in items]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("tool.name vdwgrating\n")
        with pytest.raises(DataFormatError) as err:
            read_report(path)
        assert err.value.line == 1
