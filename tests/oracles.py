"""Independent oracles used by the test suite.

Nothing here shares a code path with the implementation being checked:
the eigen oracle diagonalizes a densely assembled matrix with LAPACK, the
ground-state oracles are a radial finite-difference Newton solve and the
plain (unmixed) spectral renormalization loop, the weighted-norm oracle is one-dimensional adaptive quadrature, and the dense
cusp-corrected norm builds the whole 3x refined lattice at once.
"""

import numpy as np
from scipy import integrate, sparse
from scipy.fft import fftn as _fftn, ifftn as _ifftn
from scipy.linalg import eigh
from scipy.sparse.linalg import spsolve


def dense_lowest_eigenpair(grid, W):
    """Smallest eigenvalue/eigenvector of -Delta + W by dense diagonalization.

    The Laplacian is applied spectrally (same differential operator, not the
    same solver), assembled column by column, and handed to scipy.linalg.eigh.
    Only feasible for small grids (n^dim up to a few thousand).
    """
    m = grid.npoints
    H = np.empty((m, m))
    e = np.zeros(grid.shape)
    for i in range(m):
        idx = np.unravel_index(i, grid.shape)
        e[idx] = 1.0
        col = np.real(_ifftn(grid.k2 * _fftn(e))) + W * e
        H[:, i] = col.ravel()
        e[idx] = 0.0
    H = 0.5 * (H + H.T)
    vals, vecs = eigh(H, subset_by_index=[0, 0])
    return float(vals[0]), vecs[:, 0].reshape(grid.shape)


def radial_ground_state_fd(omega, R=14.0, N=1400, max_newton=40, tol=1e-10):
    """Radial finite-difference Newton solve of the coupled elliptic system

        -q1'' - (2/r) q1' + omega q1   = 2 q1 q2
        -(q2'' + (2/r) q2')/2 + 2w q2  = q1^2

    on [0, R] with q'(0) = 0 and q(R) = 0.  Returns (r, q1, q2)."""
    h = R / N
    r = h * np.arange(N)  # unknowns at j = 0..N-1; q(R) = 0

    def lap_matrix():
        # 3D radial Laplacian, second-order FD; at r=0, Delta f = 6(f1-f0)/h^2
        main = np.full(N, -2.0 / h ** 2)
        up = np.zeros(N - 1)
        lo = np.zeros(N - 1)
        main[0] = -6.0 / h ** 2
        up[0] = 6.0 / h ** 2
        for j in range(1, N):
            if j < N - 1:
                up[j] = 1.0 / h ** 2 + 1.0 / (r[j] * h)
            lo[j - 1] = 1.0 / h ** 2 - 1.0 / (r[j] * h)
        return sparse.diags([lo, main, up], [-1, 0, 1], format="csr")

    L = lap_matrix()
    q1 = 3.0 * omega * np.exp(-0.5 * omega * r ** 2)
    q2 = 1.5 * omega * np.exp(-0.5 * omega * r ** 2)
    I = sparse.identity(N, format="csr")

    for _ in range(max_newton):
        F1 = (-L + omega * I) @ q1 - 2.0 * q1 * q2
        F2 = 0.5 * (-L) @ q2 + 2.0 * omega * q2 - q1 ** 2
        res = max(np.abs(F1).max(), np.abs(F2).max())
        if res < tol:
            return r, q1, q2
        J11 = -L + omega * I - sparse.diags(2.0 * q2)
        J12 = -sparse.diags(2.0 * q1)
        J21 = -sparse.diags(2.0 * q1)
        J22 = 0.5 * (-L) + 2.0 * omega * I
        J = sparse.bmat([[J11, J12], [J21, J22]], format="csc")
        d = spsolve(J, np.concatenate([F1, F2]))
        q1 = q1 - d[:N]
        q2 = q2 - d[N:]
    raise RuntimeError(f"radial Newton did not converge (residual {res:.3e})")


def plain_ground_state(grid, omega, tol=1e-11, max_iter=500):
    """The 3D ground state by plain spectral renormalization: every iterate
    is the previous one's image, with no mixing and no history.  Whole-array
    sums, the full multiplier arrays and scipy's out-of-place FFTs.

    Returns (q1, q2, iterations) with real q1, q2."""
    dvol = grid.dvol
    mult1 = grid.k2 + omega
    mult2 = 0.5 * grid.k2 + 2.0 * omega

    def fft(a):
        return _fftn(a, norm="ortho")

    def recenter(a):
        peak = np.unravel_index(np.argmax(np.abs(a)), a.shape)
        return np.roll(a, tuple(c - p for c, p in zip(grid.center_index, peak)),
                       axis=tuple(range(a.ndim)))

    g = np.exp(-0.5 * omega * grid.r2)
    ghat = fft(g)
    a_pair1 = float(np.real(np.sum(mult1 * np.abs(ghat) ** 2)) * dvol)
    a_pair2 = float(np.real(np.sum(mult2 * np.abs(ghat) ** 2)) * dvol)
    b_cubic = float(np.sum(g ** 3) * dvol)
    a2 = a_pair1 / (2.0 * b_cubic)
    a1 = np.sqrt(a2 * a_pair2 / b_cubic)
    q1, q2 = a1 * g, a2 * g
    for it in range(1, max_iter + 1):
        q1hat, q2hat = fft(q1), fft(q2)
        n1hat, n2hat = fft(2.0 * q1 * q2), fft(q1 * q1)
        res1 = np.sqrt(np.sum(np.abs(mult1 * q1hat - n1hat) ** 2) * dvol)
        res2 = np.sqrt(np.sum(np.abs(mult2 * q2hat - n2hat) ** 2) * dvol)
        if res1 < tol and res2 < tol:
            return q1, q2, it
        s1 = np.sum(mult1 * np.abs(q1hat) ** 2) / np.real(np.sum(n1hat * np.conj(q1hat)))
        s2 = np.sum(mult2 * np.abs(q2hat) ** 2) / np.real(np.sum(n2hat * np.conj(q2hat)))
        q1 = recenter(s1 ** 1.5 * np.sqrt(s2) * np.real(_ifftn(n1hat / mult1, norm="ortho")))
        q2 = recenter(s1 * s2 * np.real(_ifftn(n2hat / mult2, norm="ortho")))
    raise RuntimeError(f"plain renormalization did not converge ({res1:.3e}, {res2:.3e})")


def radial_weighted_l2(profile, dim=3, upper=np.inf):
    """|| |x|^(1/2) f ||_{L^2} for a radial profile f(r), by 1D quadrature."""
    surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[dim]
    val, _ = integrate.quad(
        lambda r: r * np.abs(profile(r)) ** 2 * r ** (dim - 1),
        0.0,
        upper,
        limit=200,
    )
    return float(np.sqrt(surface * val))


def dense_fh_half_norm(f):
    """|| |x|^(1/2) f ||_{L^2} by the cusp-corrected quadrature of
    spectral.fh_half_norm, summed on the full 3x refined lattice in one
    piece: g = |f|^2 is zero-padded in every axis at once (Nyquist mode on
    the negative side) and inverse-transformed with one n-D FFT.  Needs
    several arrays of (3n)^dim points; for small grids only."""
    grid = f.grid
    d, n, p = grid.dim, grid.n, 3
    g = np.abs(f.values) ** 2
    if np.sum(g) == 0.0:
        return 0.0
    ghat = _fftn(g)
    lap_g = np.real(_ifftn(-grid.k2 * ghat))
    g0 = g[grid.center_index]
    lap0 = lap_g[grid.center_index]
    sig = min(1.0, grid.half_width / 6.0)
    alpha = g0
    beta = g0 / sig ** 2 + lap0 / (2.0 * d)

    m = p * n
    idx = np.concatenate([np.arange(n // 2), np.arange(m - n // 2, m)])
    padded = np.zeros((m,) * d, dtype=np.complex128)
    padded[np.ix_(*([idx] * d))] = ghat
    gf = np.real(_ifftn(padded)) * p ** d
    dxf = grid.dx / p
    xf = -grid.half_width + dxf * np.arange(m)
    r2f = sum(a ** 2 for a in np.meshgrid(*([xf] * d), indexing="ij", sparse=True))
    h = (alpha + beta * r2f) * np.exp(-r2f / sig ** 2)
    resid = np.sum(np.sqrt(r2f) * (gf - h)) * dxf ** d
    # int |x| e^{-|x|^2} and int |x|^3 e^{-|x|^2} over R^d
    gauss_1 = {1: 1.0, 2: np.pi ** 1.5 / 2.0, 3: 2.0 * np.pi}[d]
    gauss_3 = {1: 1.0, 2: 3.0 * np.pi ** 1.5 / 4.0, 3: 4.0 * np.pi}[d]
    exact = alpha * sig ** (d + 1) * gauss_1 + beta * sig ** (d + 3) * gauss_3
    return float(np.sqrt(max(resid + exact, 0.0)))


def free_gaussian(a, t, r2, dispersion=1.0):
    """Closed-form free evolution of exp(-a |x|^2) in 3D:
    e^{i t c Delta} exp(-a|x|^2) = (1+4iact)^{-3/2} exp(-a|x|^2/(1+4iact))."""
    z = 1.0 + 4.0j * a * dispersion * t
    return z ** -1.5 * np.exp(-a * r2 / z)
