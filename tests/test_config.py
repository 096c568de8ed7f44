import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscqed import ConfigError, load_config, paper_device_path
from dscqed.config import _linspace


@pytest.fixture
def bundled():
    return load_config(paper_device_path())


def _write_variant(tmp_path, mutate):
    with open(paper_device_path()) as fh:
        tree = yaml.safe_load(fh)
    mutate(tree)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(tree))
    return path


def test_bundled_published_constants(bundled):
    # in nH and pH: pytest.approx's 1e-12 absolute floor would swallow any
    # error on values of order 1e-10 H
    m = bundled.resonator
    assert m.l_total * 1e9 == pytest.approx(1.93)
    assert m.l_2 * 1e12 == pytest.approx(823.0)
    assert m.l_c * 1e12 == pytest.approx(231.0)
    assert m.z0 == 50.0
    q = bundled.qrm
    assert (q.delta_prime, q.omega1, q.g1) == (0.147, 2.57, 2.39)
    assert bundled.lamb.n_cutoff == 13.2


def test_sweep_section_materializes_grid(bundled):
    grid = bundled.sweep.epsilon_grid
    assert len(grid) == 81
    assert grid[0] == -1.0 and grid[-1] == 1.0
    assert 0.0 in grid
    assert bundled.sweep.freq_window == (2.0, 8.0)


_ENDS = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e-300, 1e-300),  # steps that underflow towards zero
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e6, -1e6]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    start=_ENDS,
    stop=_ENDS,
    num=st.one_of(st.sampled_from([1, 2]), st.integers(1, 10**4)),
    same=st.booleans(),
)
@example(start=0.0, stop=5e-324, num=3, same=False)  # step rounds to zero
@example(start=-5e-324, stop=5e-324, num=10**4, same=False)
@example(start=-0.0, stop=-0.0, num=1, same=False)
@example(start=-0.0, stop=0.0, num=2, same=False)
@example(start=-1e6, stop=1e6, num=10**4, same=False)
def test_grid_is_numpy_linspace_bitwise(start, stop, num, same):
    stop = start if same else stop
    want = tuple(np.linspace(start, stop, num).tolist())
    got = _linspace(start, stop, num)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_missing_file():
    with pytest.raises(ConfigError, match="no such file"):
        load_config("/nonexistent/config.yaml")


def test_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        load_config(path)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("device:\n  z0_ohm: 50\n bad_indent: {\n")
    with pytest.raises(ConfigError, match=r":\d+:"):
        load_config(path)


def test_negative_frequency_carries_field_path(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["qrm"].update(omega1_ghz=-2.57))
    with pytest.raises(ConfigError, match=r"qrm\.omega1_ghz"):
        load_config(path)


def test_unknown_key_refused(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["device"].update(bogus=1.0))
    with pytest.raises(ConfigError, match=r"device\.bogus"):
        load_config(path)


def test_missing_required_key(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["device"].pop("l_c_ph"))
    with pytest.raises(ConfigError, match=r"device\.l_c_ph"):
        load_config(path)


def test_bad_alpha(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["device"].update(alpha=1.5))
    with pytest.raises(ConfigError, match=r"device\.alpha"):
        load_config(path)


def test_initial_outside_bounds(tmp_path):
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["initial"].update(g1_ghz=99.0)
    )
    with pytest.raises(ConfigError, match=r"fit\.initial\.g1_ghz"):
        load_config(path)


def test_bad_bounds_pair(tmp_path):
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["bounds"].update(g1_ghz=[5.0, 0.5])
    )
    with pytest.raises(ConfigError, match=r"fit\.bounds\.g1_ghz"):
        load_config(path)


def test_bound_outside_model_domain_carries_field_path(tmp_path):
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["bounds"].update(omega1_ghz=[-1.0, 100.0])
    )
    with pytest.raises(ConfigError, match=r"fit\.bounds\.omega1_ghz\.0: omega1 must be > 0"):
        load_config(path)


@pytest.mark.parametrize("n_modes", [10**6 + 1, 10**400])
def test_mode_count_above_ceiling_carries_field_path(tmp_path, n_modes):
    path = _write_variant(tmp_path, lambda t: t["lamb"].update(n_modes=n_modes))
    with pytest.raises(ConfigError, match=r"lamb\.n_modes: must be <= 1000000"):
        load_config(path)


def test_overlong_integer_names_the_file(tmp_path):
    path = tmp_path / "long.yaml"
    text = paper_device_path().read_text()
    path.write_text(text.replace("n_modes: 30", "n_modes: 1" + "0" * 5000))
    with pytest.raises(ConfigError, match=f"^{path}: Exceeds the limit"):
        load_config(path)


def test_bad_output_format(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["output"].update(format="xml"))
    with pytest.raises(ConfigError, match=r"output\.format"):
        load_config(path)


def test_optional_persistent_current(tmp_path, bundled):
    # metadata only, like e_j_ghz: accepted, checked against its domain,
    # and without effect on the run
    path = _write_variant(tmp_path, lambda t: t["device"].update(i_q_na=300.0))
    assert load_config(path) == bundled
    path = _write_variant(tmp_path, lambda t: t["device"].update(i_q_na=0.0))
    with pytest.raises(ConfigError, match=r"device\.i_q_na"):
        load_config(path)


def test_null_optional_key_means_absent(tmp_path, bundled):
    cfg = load_config(_write_variant(tmp_path, lambda t: t["device"].update(i_q_na=None)))
    assert cfg == bundled


def test_out_key_is_not_checked_at_load(tmp_path):
    # write_atomic refuses an unwritable target by name when the run writes it
    path = _write_variant(tmp_path, lambda t: t["output"].update(out="/nonexistent/x.csv"))
    assert load_config(path).output.out == "/nonexistent/x.csv"


def test_refusals_name_the_file_and_the_path(tmp_path):
    path = _write_variant(tmp_path, lambda t: t["sweep"].update(epsilon_steps=0))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: sweep.epsilon_steps: must be >= 1, got 0"


def test_epsilon_window_ordering(tmp_path):
    path = _write_variant(
        tmp_path, lambda t: t["sweep"].update(epsilon_min_ghz=2.0, epsilon_max_ghz=-2.0)
    )
    with pytest.raises(ConfigError, match=r"sweep\.epsilon_min_ghz"):
        load_config(path)


def test_non_finite_number_carries_field_path(tmp_path):
    text = paper_device_path().read_text().replace(
        "epsilon_min_ghz: -1.0", "epsilon_min_ghz: .nan"
    )
    path = tmp_path / "nan.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"sweep\.epsilon_min_ghz: must be finite"):
        load_config(path)


def test_non_finite_bound_carries_field_path(tmp_path):
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["bounds"].update(g1_ghz=[0.5, float("inf")])
    )
    with pytest.raises(ConfigError, match=r"fit\.bounds\.g1_ghz\.1: must be finite"):
        load_config(path)


def test_bound_entry_must_be_a_number(tmp_path):
    # YAML 1.1 reads 1e-3 (no '.') as text; the message says so
    path = _write_variant(
        tmp_path, lambda t: t["fit"]["bounds"].update(g1_ghz=["1e-3", 5.0])
    )
    with pytest.raises(ConfigError, match=r"fit\.bounds\.g1_ghz\.0: .*1\.0e-3"):
        load_config(path)


def test_omitted_settings_take_library_defaults(tmp_path):
    from dscqed import SweepConfig
    from dscqed.config import LambSettings
    from dscqed.fitting import DEFAULT_BOUNDS
    from dscqed.lamb import DEFAULT_N_MODES

    def mutate(tree):
        del tree["fit"]["bounds"]
        del tree["lamb"]
        for key in ("k_levels", "amplitude_floor"):
            del tree["sweep"][key]

    cfg = load_config(_write_variant(tmp_path, mutate))
    assert cfg.fit.bounds == DEFAULT_BOUNDS
    assert cfg.lamb == LambSettings() == LambSettings(13.2, 0.026, DEFAULT_N_MODES)
    assert cfg.sweep.k_levels == SweepConfig.k_levels
    assert cfg.sweep.amplitude_floor == SweepConfig.amplitude_floor
    assert cfg.sweep.truncation_tol == SweepConfig.truncation_tol
