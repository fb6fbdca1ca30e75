import numpy as np
import pytest

from qfibounds.bounds import sld_information, spectral_curve
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


def test_input_state_rejected_for_spectral_families():
    with pytest.raises(SpecFormatError, match="does not take an input state"):
        ChannelSpec.from_text("family = example1\ninput_state = [1+0i, 0i, 0i]\n").build()
