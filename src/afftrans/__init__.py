"""Exact weight, alcove and translation-character combinatorics for
simple Lie algebras at rational shifted level.

All computations are exact: integers in the core, ``fractions.Fraction``
only for non-integral weights; floats are rejected at the type boundary.

Importing the package loads none of its layers: each public name, and
each layer module, is imported on first access (PEP 562).  So a caller
loads only the layers it uses, and so does each subcommand of the command
line, which imports its layers itself.  One table lists the public names by
layer; ``__all__`` and the lazy lookup are both read off it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name -> the layer module that defines it, from the one table of
# public names by layer.  A layer's own name maps to itself, so
# ``afftrans.affine`` works after a bare ``import afftrans``.
_LAYER_OF = {name: layer for layer, names in {
    "affine": ("AffineWeylElement", "Level", "affine_apply", "alcove_rep", "compose_affine",
               "dominant_orbit", "enumerate_dominant", "finite_element", "identity_element",
               "in_fundamental_alcove", "inverse_affine", "is_regular", "linked",
               "theta_wall_reflection", "translation_element"),
    "annihilator": ("SubmoduleLabels", "admissible_list", "make_labels",
                    "singular_generator_label", "transport"),
    "errors": ("AfftransError", "DatumInvalidError", "DimensionCapError", "DomainError",
               "InexactCoordinateError", "InternalInconsistencyError",
               "InvalidRootSystemError", "IterationLimitError"),
    "finchar": ("DEFAULT_CAP", "dimension", "tensor_decompose", "tensor_oracle",
                "weight_multiplicities"),
    "rootsys": ("RootSystem", "RootSystemSpec", "Weight", "bilinear", "build_root_system",
                "coroot_pairings", "pairing", "root_coords", "root_system"),
    "translate": ("LinkageCharacter", "TranslationDatum", "check_datum", "kl_weyl_filtration",
                  "make_character", "project_linkage", "round_trip_check",
                  "translate_character", "translate_verma", "translate_weyl",
                  "translation_weight", "verify_weight_geometry", "verma_filtration"),
    "weyl": ("WeylElement", "bar_involution", "dominant_rep", "enumerate_elements",
             "longest_element", "orbit", "reflection_in_root"),
}.items() for name in (layer, *names)}
__all__ = sorted(name for name, layer in _LAYER_OF.items() if name != layer)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{layer}")  # binds the layer here too
    if name == layer:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAYER_OF})
