"""Stellar representations of spin-s k-planes.

Majorana constellations of spin states, principal constellations of planes
(a closed form and two checks), SU(2) block structure of wedge powers, and
gauge-fixed multiconstellations with their spectator state.

The package is lazy: each public name is imported from its module on first
access, so `import stellar` alone loads neither a submodule nor numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_EXPORTS = {
    "_exact": "MultiplicityTable SpinLabel multiplicities_genfun schubert_count two_s_max",
    "spin_rep": "RotationSpec SpinState coherent_state geodesic_rotation so3_matrix wigner_d",
    "majorana": "ComplexPolynomial Constellation Star antipodal_constellation "
    "constellation_from_roots constellation_match_angle constellation_of_state "
    "majorana_polynomial poly_roots projective_distance projective_normalize "
    "rotate_constellation stereo_to_sphere",
    "grassmann": "KFrame KPlane PluckerVector coherent_plane frame_inner multi_indices "
    "orthogonal_complement plucker plucker_residual rotate_frame standard_form",
    "decomp": "BDBasis ComponentState Multiplet bd_basis decompose_plane "
    "multiplicities_char multiplicities_from_basis wedge_rep",
    "principal": "PrincipalResult planes_from_quartic_32 principal principal_all",
    "multicon": "ComponentReport GaugeFixed Multiconstellation PolarizationComponents "
    "multiconstellation spectator_constellation",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """Importing the submodule `principal` binds it onto the package; that
    binding is refused, so the function of the same name stays visible."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
