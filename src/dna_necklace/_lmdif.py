"""Levenberg-Marquardt least squares: a pure-Python port of MINPACK `lmdif`.

Follows lmdif, fdjac2, qrfac (with column pivoting), lmpar, qrsolv and
enorm of MINPACK-1 (Moré, Garbow & Hillstrom, ANL-80-74, 1980) operation
for operation, specialised to the call `scipy.optimize.curve_fit` makes:
forward-difference Jacobian with epsfcn = float64 eps, ftol = xtol =
1e-12, gtol = 0, factor = 100, diag mode 1 (scaled by the column norms of
the first Jacobian) and no printing.  Kept in the same order, the float64
operations give the same bits as the compiled MINPACK inside curve_fit,
so a fit comes out exactly as curve_fit gave it (tests/test_lmdif.py
checks this against scipy).  Three rules keep that true:

- a Fortran `a**2` is written `a * a`: CPython's `a ** 2` calls the C
  library's `pow`, which is not always the correctly rounded square;
- sums are plain left-to-right loops: `sum()` and `math.fsum` may
  compensate rounding and so differ;
- no two operations are fused or reordered, even where the algebra
  allows it.

Tests are written in their plain sense (`ratio <= 0.25` for Fortran's
"skip if ratio > 0.25"), which takes MINPACK's branch for every value
but NaN.

Matrices are lists of columns, so `a[j][i]` is the Fortran `a(i,j)`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

FTOL = 1e-12
XTOL = 1e-12
GTOL = 0.0
MAXFEV = 20000
FACTOR = 100.0
EPSMCH = 2.220446049250313e-16  # float64 machine epsilon, dpmpar(1); also epsfcn
DWARF = 2.2250738585072014e-308  # smallest positive normal float64, dpmpar(2)
_STEP = math.sqrt(EPSMCH)  # relative forward-difference step of fdjac2
_RDWARF = 3.834e-20
_RGIANT = 1.304e19

# Info codes 1-4 report convergence; these report giving up, worded as
# scipy's curve_fit words them at this call's settings.
FAILURES = {
    5: f"Number of calls to function has reached maxfev = {MAXFEV}.",
    6: f"ftol={FTOL:f} is too small, no further reduction in the sum of "
    "squares\n  is possible.",
    7: f"xtol={XTOL:f} is too small, no further improvement in the "
    "approximate\n  solution is possible.",
    8: f"gtol={GTOL:f} is too small, func(x) is orthogonal to the columns "
    "of\n  the Jacobian to machine precision.",
}

Residuals = Callable[[Sequence[float]], Sequence[float]]


def lmdif(fcn: Residuals, x0: Sequence[float]) -> tuple[list[float], int]:
    """Minimise sum(fcn(x)**2) from x0; returns (x, MINPACK info code).

    `fcn` maps n parameters to m >= n residuals.  Codes 1-4 mean a
    convergence test passed; 5-8 mean the search gave up (see FAILURES).
    """
    x = [float(v) for v in x0]
    n = len(x)
    fvec = fcn(x)
    m = len(fvec)
    nfev = 1
    fnorm = _enorm(fvec)
    par = 0.0
    iteration = 1
    while True:  # outer loop: one Jacobian per successful step
        fjac = _fdjac2(fcn, x, fvec)
        nfev += n
        ipvt, rdiag, acnorm = _qrfac(fjac)
        if iteration == 1:
            diag = [v if v != 0.0 else 1.0 for v in acnorm]
            xnorm = _enorm([diag[j] * x[j] for j in range(n)])
            delta = FACTOR * xnorm
            if delta == 0.0:
                delta = FACTOR

        # qtf = the first n components of (Q transpose)*fvec.
        wa4 = list(fvec)
        qtf = []
        for j in range(n):
            col = fjac[j]
            if col[j] != 0.0:
                s = 0.0
                for i in range(j, m):
                    s = s + col[i] * wa4[i]
                temp = -s / col[j]
                for i in range(j, m):
                    wa4[i] = wa4[i] + col[i] * temp
            col[j] = rdiag[j]
            qtf.append(wa4[j])

        # Norm of the scaled gradient.
        gnorm = 0.0
        if fnorm != 0.0:
            for j in range(n):
                l = ipvt[j]
                if acnorm[l] != 0.0:
                    col = fjac[j]
                    s = 0.0
                    for i in range(j + 1):
                        s = s + col[i] * (qtf[i] / fnorm)
                    gnorm = max(gnorm, abs(s / acnorm[l]))
        if gnorm <= GTOL:
            return x, 4
        diag = [max(diag[j], acnorm[j]) for j in range(n)]

        while True:  # inner loop: shrink the step until it reduces the sum
            par, step = _lmpar(fjac, ipvt, diag, qtf, delta, par)
            step = [-v for v in step]
            trial = [x[j] + step[j] for j in range(n)]
            pnorm = _enorm([diag[j] * step[j] for j in range(n)])
            if iteration == 1:
                delta = min(delta, pnorm)
            ftrial = fcn(trial)
            nfev += 1
            fnorm1 = _enorm(ftrial)

            # Scaled actual and predicted reductions, directional derivative.
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                t = fnorm1 / fnorm
                actred = 1.0 - t * t
            wa3 = [0.0] * n
            for j in range(n):
                col = fjac[j]
                temp = step[ipvt[j]]
                for i in range(j + 1):
                    wa3[i] = wa3[i] + col[i] * temp
            temp1 = _enorm(wa3) / fnorm
            temp2 = (math.sqrt(par) * pnorm) / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = 0.0
            if prered != 0.0:
                ratio = actred / prered

            # Update the step bound.
            if ratio <= 0.25:
                if actred >= 0.0:
                    temp = 0.5
                else:
                    temp = 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par = par / temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par = 0.5 * par

            if ratio >= 1e-4:  # successful step
                x = trial
                fvec = ftrial
                xnorm = _enorm([diag[j] * x[j] for j in range(n)])
                fnorm = fnorm1
                iteration += 1

            ftol_met = abs(actred) <= FTOL and prered <= FTOL and 0.5 * ratio <= 1.0
            xtol_met = delta <= XTOL * xnorm
            if xtol_met:
                return x, 3 if ftol_met else 2
            if ftol_met:
                return x, 1
            if gnorm <= EPSMCH:
                return x, 8
            if delta <= EPSMCH * xnorm:
                return x, 7
            if abs(actred) <= EPSMCH and prered <= EPSMCH and 0.5 * ratio <= 1.0:
                return x, 6
            if nfev >= MAXFEV:
                return x, 5
            if ratio >= 1e-4:
                break


def _enorm(v: Sequence[float]) -> float:
    """Euclidean norm of v, summed in three magnitude ranges so that no
    square overflows or underflows."""
    s1 = s2 = s3 = 0.0
    x1max = x3max = 0.0
    agiant = _RGIANT / len(v)
    for value in v:
        xabs = abs(value)
        if xabs > _RDWARF and xabs < agiant:
            s2 = s2 + xabs * xabs
        elif xabs <= _RDWARF:
            if xabs > x3max:
                t = x3max / xabs
                s3 = 1.0 + s3 * (t * t)
                x3max = xabs
            elif xabs != 0.0:
                t = xabs / x3max
                s3 = s3 + t * t
        elif xabs <= x1max:
            t = xabs / x1max
            s1 = s1 + t * t
        else:
            t = x1max / xabs
            s1 = 1.0 + s1 * (t * t)
            x1max = xabs
    if s1 != 0.0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 != 0.0:
        if s2 >= x3max:
            return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
        return math.sqrt(x3max * ((s2 / x3max) + (x3max * s3)))
    return x3max * math.sqrt(s3)


def _fdjac2(fcn: Residuals, x: list[float], fvec: Sequence[float]) -> list[list[float]]:
    """Forward-difference Jacobian of fcn at x, one column per parameter."""
    fjac = []
    for j in range(len(x)):
        temp = x[j]
        h = _STEP * abs(temp)
        if h == 0.0:
            h = _STEP
        x[j] = temp + h
        wa = fcn(x)
        x[j] = temp
        fjac.append([(wa[i] - fvec[i]) / h for i in range(len(fvec))])
    return fjac


def _qrfac(a: list[list[float]]) -> tuple[list[int], list[float], list[float]]:
    """Householder QR of a with column pivoting, in place.

    Returns (ipvt, rdiag, acnorm): the column permutation, the diagonal of
    R and the norms of the columns of the original a.  R's strict upper
    triangle and the Householder vectors are left in a.
    """
    m = len(a[0])
    n = len(a)
    acnorm = [_enorm(col) for col in a]
    rdiag = list(acnorm)
    wa = list(acnorm)
    ipvt = list(range(n))
    for j in range(min(m, n)):
        # Bring the column of largest remaining norm into the pivot position.
        kmax = j
        for k in range(j, n):
            if rdiag[k] > rdiag[kmax]:
                kmax = k
        if kmax != j:
            a[j], a[kmax] = a[kmax], a[j]
            rdiag[kmax] = rdiag[j]
            wa[kmax] = wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]

        # Householder transformation reducing column j to a multiple of e_j.
        aj = a[j]
        ajnorm = _enorm(aj[j:])
        if ajnorm != 0.0:
            if aj[j] < 0.0:
                ajnorm = -ajnorm
            for i in range(j, m):
                aj[i] = aj[i] / ajnorm
            aj[j] = aj[j] + 1.0

            # Apply it to the remaining columns and update their norms.
            for k in range(j + 1, n):
                ak = a[k]
                s = 0.0
                for i in range(j, m):
                    s = s + aj[i] * ak[i]
                temp = s / aj[j]
                for i in range(j, m):
                    ak[i] = ak[i] - temp * aj[i]
                if rdiag[k] != 0.0:
                    temp = ak[j] / rdiag[k]
                    rdiag[k] = rdiag[k] * math.sqrt(max(0.0, 1.0 - temp * temp))
                    t = rdiag[k] / wa[k]
                    if 0.05 * (t * t) <= EPSMCH:
                        rdiag[k] = _enorm(ak[j + 1 :])
                        wa[k] = rdiag[k]
        rdiag[j] = -ajnorm
    return ipvt, rdiag, acnorm


def _lmpar(
    r: list[list[float]],
    ipvt: list[int],
    diag: list[float],
    qtb: list[float],
    delta: float,
    par: float,
) -> tuple[float, list[float]]:
    """The Levenberg-Marquardt parameter for step bound delta.

    Returns (par, x): x solves the damped least-squares problem and the
    scaled step |diag*x| is within 10% of delta, or par is 0 and x is the
    Gauss-Newton step.  Overwrites the strict lower triangle of r.
    """
    n = len(r)

    # Gauss-Newton direction; a least-squares solution if R is singular.
    nsing = n
    wa1 = list(qtb)
    for j in range(n):
        if r[j][j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa1[j] = 0.0
    for j in reversed(range(nsing)):
        col = r[j]
        wa1[j] = wa1[j] / col[j]
        temp = wa1[j]
        for i in range(j):
            wa1[i] = wa1[i] - col[i] * temp
    x = [0.0] * n
    for j in range(n):
        x[ipvt[j]] = wa1[j]

    # Accept the Gauss-Newton step if it is short enough.
    wa2 = [diag[j] * x[j] for j in range(n)]
    dxnorm = _enorm(wa2)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x

    # Lower bound parl from the Newton step (zero if R is singular).
    parl = 0.0
    if nsing == n:
        for j in range(n):
            l = ipvt[j]
            wa1[j] = diag[l] * (wa2[l] / dxnorm)
        for j in range(n):
            col = r[j]
            s = 0.0
            for i in range(j):
                s = s + col[i] * wa1[i]
            wa1[j] = (wa1[j] - s) / col[j]
        temp = _enorm(wa1)
        parl = ((fp / delta) / temp) / temp

    # Upper bound paru.
    for j in range(n):
        col = r[j]
        s = 0.0
        for i in range(j + 1):
            s = s + col[i] * qtb[i]
        wa1[j] = s / diag[ipvt[j]]
    gnorm = _enorm(wa1)
    paru = gnorm / delta
    if paru == 0.0:
        paru = DWARF / min(delta, 0.1)

    par = max(par, parl)
    par = min(par, paru)
    if par == 0.0:
        par = gnorm / dxnorm

    for iteration in range(1, 11):
        if par == 0.0:
            par = max(DWARF, 0.001 * paru)
        temp = math.sqrt(par)
        x, sdiag = _qrsolv(r, ipvt, [temp * d for d in diag], qtb)
        wa2 = [diag[j] * x[j] for j in range(n)]
        dxnorm = _enorm(wa2)
        temp = fp
        fp = dxnorm - delta
        if (
            abs(fp) <= 0.1 * delta
            or (parl == 0.0 and fp <= temp and temp < 0.0)
            or iteration == 10
        ):
            break

        # Newton correction.
        for j in range(n):
            l = ipvt[j]
            wa1[j] = diag[l] * (wa2[l] / dxnorm)
        for j in range(n):
            col = r[j]
            wa1[j] = wa1[j] / sdiag[j]
            temp = wa1[j]
            for i in range(j + 1, n):
                wa1[i] = wa1[i] - col[i] * temp
        temp = _enorm(wa1)
        parc = ((fp / delta) / temp) / temp
        if fp > 0.0:
            parl = max(parl, par)
        if fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, x


def _qrsolv(
    r: list[list[float]], ipvt: list[int], diag: list[float], qtb: list[float]
) -> tuple[list[float], list[float]]:
    """Least-squares solution of [A; D] x = [b; 0] given A P = Q R.

    Returns (x, sdiag), sdiag being the diagonal of the triangular S with
    P^T (A^T A + D D) P = S^T S.  S's strict lower triangle overwrites
    r's; the upper triangle of r is kept and its diagonal restored.
    """
    n = len(r)
    x = []
    wa = list(qtb)
    for j in range(n):
        col = r[j]
        for i in range(j, n):
            col[i] = r[i][j]
        x.append(col[j])

    # Eliminate the diagonal matrix D with Givens rotations.
    sdiag = [0.0] * n
    for j in range(n):
        l = ipvt[j]
        if diag[l] != 0.0:
            for k in range(j, n):
                sdiag[k] = 0.0
            sdiag[j] = diag[l]
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0.0:
                    continue
                col = r[k]
                if abs(col[k]) >= abs(sdiag[k]):
                    tan = sdiag[k] / col[k]
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                    sin = cos * tan
                else:
                    cotan = col[k] / sdiag[k]
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cos = sin * cotan
                col[k] = cos * col[k] + sin * sdiag[k]
                temp = cos * wa[k] + sin * qtbpj
                qtbpj = -sin * wa[k] + cos * qtbpj
                wa[k] = temp
                for i in range(k + 1, n):
                    temp = cos * col[i] + sin * sdiag[i]
                    sdiag[i] = -sin * col[i] + cos * sdiag[i]
                    col[i] = temp
        sdiag[j] = r[j][j]
        r[j][j] = x[j]

    # Back-substitute; a least-squares solution if S is singular.
    nsing = n
    for j in range(n):
        if sdiag[j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa[j] = 0.0
    for j in reversed(range(nsing)):
        col = r[j]
        s = 0.0
        for i in range(j + 1, nsing):
            s = s + col[i] * wa[i]
        wa[j] = (wa[j] - s) / sdiag[j]
    for j in range(n):
        x[ipvt[j]] = wa[j]
    return x, sdiag
