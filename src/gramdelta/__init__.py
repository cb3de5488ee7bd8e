"""Gram discriminants of the Hardy Z-function: sections of the rotated
Dirichlet sum over a parameter space, Gram points and their viscosity,
discriminant traces along connecting curves, neighbour adjustments, and the
period-5 counterexample for contrast."""

from .special import ThetaKind, gram_gap, lambert_w0, theta, theta_deriv, theta_main_deriv
from .zmodel import (CoefficientModel, ClassicalValues, classical_afe,
                     find_zero_newton, hardy_z, localized_sum, riemann_model,
                     section_eval)
from .gram import (GramBlock, GramKind, GramRecord, RecordSource, blocks,
                   classify, core_zero, gbg_scan, gram_point, gram_point_seed)
from .discriminant import (ClosedFormReport, DiscriminantTrace, TraceStatus,
                           closed_forms, discriminant_at, second_order_approx,
                           term_table, track_extremum)
from .curves import (corrected_curve, descending_stage, linear, select_shift_indices,
                     shifting_stage)
from .adjust import (AdjustmentReport, GramVectors, adjustment_phase,
                     adjustments, alpha_average, gram_vectors, partition_approx,
                     stage_analysis)
from .dh import (DH_COEFFS, KAPPA, dh_model, dh_violation_experiment,
                 riemann_contrast)

__version__ = "0.1.0"
