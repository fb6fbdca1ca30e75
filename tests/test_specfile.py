import numpy as np
import pytest

from qfibounds import channels
from qfibounds.bounds import sld_information, spectral_curve
from qfibounds.channels import ParametricChannel, SpectralData
from qfibounds.errors import SpecFormatError, ValidationError
from qfibounds.specfile import ChannelSpec, parse_complex

DEPHASING_SPEC = """\
# qubit dephasing on |+>
family = dephasing
name = dephasing-plus
theta_domain = [0.0, 1.0]
input_state = [0.7071067811865476+0i, 0.7071067811865476+0i]
"""


@pytest.mark.parametrize(
    "token,expected",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("-0.5i", -0.5j),
        ("2i", 2j),
        ("i", 1j),
        ("-i", -1j),
        ("1e-3+2e-4i", 1e-3 + 2e-4j),
    ],
)
def test_parse_complex(token, expected):
    assert parse_complex(token) == expected


def test_parse_dephasing_round_trip():
    ch = ChannelSpec.from_text(DEPHASING_SPEC).build()
    assert ch.name == "dephasing-plus"
    assert ch.dim == 2 and ch.param_count == 1
    assert ch.domain == ((0.0, 1.0),)
    ref = ChannelSpec.from_text("family = dephasing").build()
    assert np.allclose(ch.kraus_matrices(0.3), ref.kraus_matrices(0.3))


def test_rejects_unnormalized_input():
    with pytest.raises(ValidationError, match="norm defect"):
        ChannelSpec.from_text("family = dephasing\ninput_state = [1+0i, 1+0i]\n").build()


def test_rejects_unknown_key_with_line():
    with pytest.raises(SpecFormatError, match="line 2"):
        ChannelSpec.from_text("family = dephasing\nbogus = 1\n").build()


def test_rejects_syntax_errors():
    with pytest.raises(SpecFormatError, match="key = value"):
        ChannelSpec.from_text("family dephasing\n")
    with pytest.raises(SpecFormatError, match="duplicate"):
        ChannelSpec.from_text("family = dephasing\nfamily = rotation\n")
    with pytest.raises(SpecFormatError, match="missing required"):
        ChannelSpec.from_text("name = nothing\n")
    with pytest.raises(SpecFormatError, match="unknown family"):
        ChannelSpec.from_text("family = teleporter\n")


def test_example2_two_parameter_spec():
    text = (
        "family = example2\n"
        "f_coeffs = [0, 1, 0]\n"
        "g_coeffs = [0, 0, 1]\n"
        "theta_domain = [0.05, 0.95] x 2\n"
    )
    ch = ChannelSpec.from_text(text).build()
    assert ch.param_count == 2
    data = ch.spectral_at(np.array([0.6, 0.3]))
    assert np.allclose(data.values, [0.36, 0.64])


def test_rotation_axis_option():
    ch = ChannelSpec.from_text("family = rotation\naxis = x\n").build()
    assert ch.name == "rotation"
    assert ch.kraus_matrices(0.0).shape == (1, 2, 2)


def test_random_kraus_spec():
    ch = ChannelSpec.from_text("family = random-kraus\ndim = 3\nenv = 2\nseed = 11\n").build()
    assert ch.dim == 3


def test_family_keys_are_the_constructor_options_typed_by_their_defaults(monkeypatch):
    text = "family = random-kraus\ndim = 3\nscale = 2\nseed = 4\n"
    options = ChannelSpec.from_text(text).options
    assert options == {"dim": 3, "scale": 2.0, "seed": 4}
    assert type(options["scale"]) is float
    assert ChannelSpec.from_text("family = rotation\naxis = X\n").options == {"axis": "x"}
    assert ChannelSpec.from_text("family = example2\nf_coeffs = [0, 1, 0]\n").options == {
        "f_coeffs": (0.0, 1.0, 0.0)
    }
    for key in ("domain", "input_state"):  # theta_domain, and no input for example2
        with pytest.raises(SpecFormatError):
            ChannelSpec.from_text(f"family = example2\n{key} = [0.1, 0.9]\n")
    monkeypatch.setitem(channels.BUILTIN_FAMILIES, "toy", lambda gain=1.0, label="a": None)
    assert ChannelSpec.from_text("family = toy\ngain = 3\nlabel = B\n").options == {
        "gain": 3.0, "label": "b"
    }
    with pytest.raises(SpecFormatError, match="key 'gain' needs a number"):
        ChannelSpec.from_text("family = toy\ngain = three\n")


def test_custom_spectral_spec():
    text = (
        "family = custom-spectral\n"
        "name = classical-flip\n"
        "theta_domain = [0.05, 0.95]\n"
        "eigenvector_1 = [0.7071067811865476+0i, 0.7071067811865476+0i]\n"
        "eigenvector_2 = [0.7071067811865476+0i, -0.7071067811865476+0i]\n"
        "eigenvalue_1 = [1.0, -1.0]\n"
        "eigenvalue_2 = [0.0, 1.0]\n"
    )
    ch = ChannelSpec.from_text(text).build()
    assert ch.name == "classical-flip"
    h = sld_information(spectral_curve(ch, 0.2))
    assert h == pytest.approx(1 / (0.2 * 0.8), rel=1e-12)


def test_custom_spectral_missing_pieces():
    with pytest.raises(SpecFormatError, match="theta_domain"):
        ChannelSpec.from_text(
            "family = custom-spectral\neigenvector_1 = [1+0i]\neigenvalue_1 = [1.0, 0.0]\n"
        ).build()
    with pytest.raises(SpecFormatError, match="eigenvalue_2"):
        ChannelSpec.from_text(
            "family = custom-spectral\n"
            "theta_domain = [0.1, 0.9]\n"
            "eigenvector_1 = [1+0i, 0i]\n"
            "eigenvector_2 = [0i, 1+0i]\n"
            "eigenvalue_1 = [1.0, 0.0]\n"
        ).build()


def test_domain_override_validation():
    with pytest.raises(ValidationError, match="interval"):
        ChannelSpec.from_text("family = dephasing\ntheta_domain = [0.1, 0.9] x 2\n").build()
    # domain outside the family's mathematical range fails invariant checks
    with pytest.raises(ValidationError, match="invariants fail"):
        ChannelSpec.from_text("family = dephasing\ntheta_domain = [0.5, 1.5]\n").build()


def test_incomplete_kraus_family_fails_spec_validation(monkeypatch):
    # two identity operators: sum E^dag E = 2 I at every theta
    doubled = lambda theta: np.broadcast_to(np.eye(2), (*np.shape(theta)[:-1], 2, 2, 2))
    factory = lambda: ParametricChannel(
        name="doubled", dim=2, param_count=1, domain=((0.0, 1.0),), kraus_fn=doubled,
        kraus_grad_fn=lambda theta, l: np.zeros_like(doubled(theta)),
    )
    monkeypatch.setitem(channels.BUILTIN_FAMILIES, "dephasing", factory)
    expected = r"^channel invariants fail at theta = \[0\.0\]: completeness defect 1\.000e\+00$"
    with pytest.raises(ValidationError, match=expected):
        ChannelSpec.from_text("family = dephasing\n").build()


def _defective_family(defects: dict, spectral: bool) -> ParametricChannel:
    """A qubit family on [0, 1] with the defects (theta -> kind) at their thetas, sound elsewhere."""
    kinds = lambda theta: np.vectorize(lambda t: defects.get(t, ""))(theta[..., 0])
    if spectral:
        def spectral_fn(theta):
            kind = kinds(theta)[..., np.newaxis]
            values = np.where(kind == "sum", 0.7, 0.5) * np.ones(2)
            vectors = np.where(kind[..., np.newaxis] == "frame", np.diag([1.0, 2.0]), np.eye(2))
            zeros = np.zeros((*kind.shape[:-1], 1, 2, 2), dtype=complex)
            return SpectralData(values, vectors.astype(complex), zeros[..., 0, :], zeros)
        return ParametricChannel("defective", 2, 1, ((0.0, 1.0),), spectral_fn=spectral_fn)

    def kraus(theta):
        kind = kinds(theta)
        weight = np.select([kind == "incomplete", kind == "nan"], [2.0, np.nan], 1.0)
        return np.sqrt(weight)[..., np.newaxis, np.newaxis, np.newaxis] * np.eye(2)
    return ParametricChannel("defective", 2, 1, ((0.0, 1.0),), kraus_fn=kraus,
                             kraus_grad_fn=lambda theta, l: np.zeros_like(kraus(theta)))


@pytest.mark.parametrize("defects, spectral, first, message", [
    ({0.0: "incomplete", 1.0: "nan"}, False, 0.0, "completeness defect 1.000e+00"),
    ({0.0: "nan", 1.0: "incomplete"}, False, 0.0,
     "Kraus evaluation at theta [0.0] produced non-finite entries"),
    ({0.5: "nan", 1.0: "incomplete"}, False, 1.0, "completeness defect 1.000e+00"),
    ({0.0: "frame", 1.0: "sum"}, True, 0.0, "spectral vectors orthonormality defect 3.000e+00"),
    ({0.0: "sum", 1.0: "frame"}, True, 0.0, "spectral values sum defect 4.000e-01"),
])
def test_domain_validation_names_the_first_failing_point_and_its_defect(
    monkeypatch, defects, spectral, first, message
):
    # The corners and the midpoint are checked in one stacked call; a refusal
    # still names the first point, corners before the midpoint, that fails,
    # and that point's own first defect, though a later point fails otherwise.
    monkeypatch.setitem(channels.BUILTIN_FAMILIES, "dephasing",
                        lambda: _defective_family(defects, spectral))
    with pytest.raises(ValidationError) as refusal:
        ChannelSpec.from_text("family = dephasing\n").build()
    assert str(refusal.value) == f"channel invariants fail at theta = [{first}]: {message}"


def test_input_state_rejected_for_spectral_families():
    with pytest.raises(SpecFormatError, match="does not take an input state"):
        ChannelSpec.from_text("family = example1\ninput_state = [1+0i, 0i, 0i]\n").build()
