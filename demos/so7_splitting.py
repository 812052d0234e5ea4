"""The splitting so(7) = g2 + R^7 and the four-way split of End(R^7).

Run with:  python demos/so7_splitting.py
"""

from random import Random

from g2kit import (
    Mat7,
    Vec7,
    bracket_g2perp,
    build_standard_frame,
    cross,
    cross_operator,
    decompose_endo,
    g2_basis,
    skew_to_vector,
    split_so7,
)
from g2kit.sampling import rand_mat, rand_skew, rand_vec

frame = build_standard_frame()
rng = Random(0)

v = Vec7.of(2, -1, 0, 1, 0, 0, 3)
a_v = cross_operator(v, frame)
print("the cross operator A_v is skew:", a_v.is_skew())
print("contraction recovers 6v:", skew_to_vector(a_v, frame) == v.scale(6))
print("g2 = kernel of the contraction has dimension", len(g2_basis(frame)))

a = rand_skew(rng)
g2part, vec = split_so7(a, frame)
print("\nsplitting a random skew matrix:")
print("  g2 part contracts to zero:", skew_to_vector(g2part, frame).is_zero())
print("  parts re-sum exactly:", g2part + cross_operator(vec, frame) == a)

u, w = rand_vec(rng), rand_vec(rng)
print("\nthe g2-perp part of [A_u, A_w] is the cross operator of u x w:",
      bracket_g2perp(u, w, frame) == cross_operator(cross(u, w, frame), frame))

t = rand_mat(rng)
split = decompose_endo(t, frame)
norms = split.part_norms_sq()
print("\nfour-way split of a random endomorphism (scalar, sym0, g2, vector):")
print("  squared norms:", tuple(str(n) for n in norms))
print("  norms add up to |T|^2:", sum(norms) == t.norm_sq())
print("  reconstruction is exact:", split.reconstruct(frame) == t)
print("  identity matrix is pure scalar:",
      decompose_endo(Mat7.identity(), frame).nonzero_flags() == frozenset({"X1"}))
