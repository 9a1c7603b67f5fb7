"""Exact spectral analyzer for weighted composition operators on the
continuous functions of a finitely presented compact orbit system."""

from .exact import (INF, CirclePoint, ExactRadius, QPoint, RationalComplex,
                    RootPoint)
from .model import (CoreSets, Cycle, ModelError, OMEGA, OrbitModel, Ray,
                    ValidatedModel, core_sets, load_model, model_to_json,
                    parse_model_json, validate)
from .oracle import (Certificate, chain_defect_dim, chain_kernel_dim,
                     in_certificate, out_certificate)
from .radialset import (RadialSet, canonicalize, complement_components,
                        intersect, union)
from .spectra import (FredholmData, SpectralReport, ZeroReport,
                      essential_spectra, fredholm_data, sample_grid,
                      self_check, sigma_L, sigma_M, zero_analysis)

__version__ = "0.1.0"
