"""SOS membership: certificates for members, moment witnesses for outsiders.

A polynomial g of degree <= 2d is a sum of squares exactly when some PSD
matrix X reproduces its coefficients through the basis products.  A feasible
X yields an explicit decomposition (eigendecomposition); infeasibility is
certified by a moment vector y with M_d(y) PSD and L_y(g) < 0.
"""

import numpy as np

from l1sos import Polynomial, is_sos, moment_matrix, motzkin_like, riesz, verify

x1 = Polynomial.variable(2, 0)
x2 = Polynomial.variable(2, 1)

# A clear member.
g = 2.0 * (x1 - x2) ** 2 + (x1 * x2 - 1.0) ** 2
res = is_sos(g, 2)
print("g SOS:", res.is_sos)
for w, q in zip(res.weights, res.squares):
    print(f"  + {w:.6g} * ({q})^2")
print("reconstruction residual:", res.residual)
# verify rebuilds g from the squares and weights, without the stored residual.
print(verify(res, g, 2))

# The Motzkin-like polynomial is nonnegative but has no SOS decomposition;
# the checker returns a moment witness instead: the Farkas ray of the
# infeasible Gram program, scaled to largest corner moment 1.
f = motzkin_like()
ref = is_sos(f, 3)
print("\nmotzkin-like SOS:", ref.is_sos)
print("witness value L_y(f) =", ref.value, "(negative)")
print(
    "witness moment matrix min eigenvalue:",
    np.linalg.eigvalsh(moment_matrix(ref.witness, 3))[0],
)
assert riesz(ref.witness, f) == ref.value
print(verify(ref, f, 3))
