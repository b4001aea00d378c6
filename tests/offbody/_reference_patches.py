"""Scalar oracle for ``PatchSystem._touch_matrix`` (tests only)."""


def touches(system, p, q) -> bool:
    """Whether two patches share a face, edge, or corner (exact)."""
    (plo, phi), (qlo, qhi) = system._span(p), system._span(q)
    return all(
        plo[a] <= qhi[a] and qlo[a] <= phi[a] for a in range(system.ndim)
    )
