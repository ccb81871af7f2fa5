"""Exact symbolic toolkit around the symmetries of the 3x3 matrix
multiplication tensor: cyclotomic arithmetic, the 144-element group
action, invariant projections, the catalog of short orbit families,
the length-23 non-existence prover, and Brent equation systems."""

from .cyclotomic import Cyclotomic
from .poly import Polynomial, ParamId, BrentVar, parse_polynomial, parse_cyclotomic
from .tensors import Tensor, tensor_from_factors, pi12, index_is_even
from .invariants import GammaVector, compute_classes, project, orbit_sum
from .catalog import matmul_tensor, verify_catalog
from .prover import verify_theorem, enumerate_multisets
from .brent import generic_system, invariant_system

__all__ = [
    "Cyclotomic", "Polynomial", "ParamId", "BrentVar",
    "parse_polynomial", "parse_cyclotomic",
    "Tensor", "tensor_from_factors", "pi12", "index_is_even",
    "GammaVector", "compute_classes", "project", "orbit_sum",
    "matmul_tensor", "verify_catalog",
    "verify_theorem", "enumerate_multisets",
    "generic_system", "invariant_system",
]
