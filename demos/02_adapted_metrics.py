#!/usr/bin/env python3
"""Adapted metrics on m and their orthonormal frames.

The invariant metrics compatible with the Z_2^2 grading form a
four-parameter family (t, u, v, w).  This script builds a few of them,
checks invariance under the isotropy algebra and shows the frame in which
all later tables are expressed.
"""

import numpy as np

from zksym import (
    DegenerateMetricError,
    FRAME_NAMES,
    InvalidParamsError,
    MetricParams,
    build_form,
    build_so5,
    check_adh_invariance,
    orthonormal_frame,
)

np.set_printoptions(precision=4, suppress=True)

p = MetricParams(t=1.0, u=1.0, v=1.0, w=2.0)
form = build_form(p)
print(f"params: t={p.t} u={p.u} v={p.v} w={p.w}  K={p.K:.6f}")
print("Gram matrix on m (A-block couples A1<->A4 and A2<->A3 through u/2):")
print(form.gram)

report = check_adh_invariance(build_so5(), form)
print(f"\nad(h)-invariance residual: {report.max_residual:.3g}")

frame = orthonormal_frame(p)
print("\nframe vectors in raw m-coordinates (columns):")
for name in FRAME_NAMES:
    print(f"  {name}: {frame.vector(name)}")

gram_in_frame = frame.matrix.T @ form.gram @ frame.matrix
print("\nGram matrix in the frame (should be the identity):")
print(gram_in_frame)

# eigenvalues of the A-block are t^2 +- u/2, each twice: the form is
# positive-definite exactly for |u| < 2 t^2, and the K-guard refuses early
print("\nA-block eigenvalues:", np.linalg.eigvalsh(form.gram[:4, :4]))
try:
    MetricParams(1.0, 3.0, 1.0, 1.0)
except InvalidParamsError as exc:
    print(f"u = 3 t^2 refused: {exc}")
try:
    build_form(MetricParams(1.0, 2.0, 1.0, 1.0))
except DegenerateMetricError as exc:
    print(f"u = 2 t^2 refused: {exc}")
