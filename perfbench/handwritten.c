/* Hand-written C references for the benchmark's programs.
 *
 * Each function is the loop a programmer would write by hand for one
 * program of repro.kernels, over a flat row-major float64 buffer with
 * 1-based logical indices.  Every expression keeps the source's
 * parenthesization and operand order, and the file is compiled with
 * repro.backends.native.CFLAGS (no FP contraction), so the results are
 * bit-identical to the compiled programs and the converge loop takes
 * the same number of sweeps.
 */
#include <math.h>
#include <string.h>

#define AT(buf, m, i, j) (buf)[((i) - 1) * (m) + ((j) - 1)]

/* u0 of PROGRAM_JACOBI / PROGRAM_JACOBI_STEPS / PROGRAM_SOR: the
 * boundary holds i+j, the interior 0. */
static void mesh_seed(double *u, long m)
{
    for (long i = 1; i <= m; i++)
        for (long j = 1; j <= m; j++)
            AT(u, m, i, j) = (i == 1 || i == m || j == 1 || j == m)
                ? 1.0 * (double)(i + j) : 0.0;
}

static void jacobi_sweep(const double *u, double *a, long m)
{
    for (long j = 1; j <= m; j++) {
        AT(a, m, 1, j) = AT(u, m, 1, j);
        AT(a, m, m, j) = AT(u, m, m, j);
    }
    for (long i = 2; i <= m - 1; i++) {
        AT(a, m, i, 1) = AT(u, m, i, 1);
        AT(a, m, i, m) = AT(u, m, i, m);
        for (long j = 2; j <= m - 1; j++)
            AT(a, m, i, j) = 0.25 * (AT(u, m, i - 1, j) + AT(u, m, i + 1, j)
                                     + AT(u, m, i, j - 1)
                                     + AT(u, m, i, j + 1));
    }
}

/* PROGRAM_JACOBI_STEPS: k double-buffered sweeps; result in out. */
void jacobi_steps(long m, long k, double *out, double *scratch)
{
    double *src = out, *dst = scratch, *t;
    mesh_seed(src, m);
    for (long s = 0; s < k; s++) {
        jacobi_sweep(src, dst, m);
        t = src; src = dst; dst = t;
    }
    if (src != out)
        memcpy(out, src, sizeof(double) * (size_t)(m * m));
}

/* PROGRAM_JACOBI: sweep until max |new - old| <= tol; returns the
 * sweep count (-1 past the cap), result in out. */
long jacobi_converge(long m, double tol, long cap, double *out,
                     double *scratch)
{
    double *src = out, *dst = scratch, *t;
    mesh_seed(src, m);
    for (long s = 1; s <= cap; s++) {
        jacobi_sweep(src, dst, m);
        double best = 0.0;
        for (long c = 0; c < m * m; c++) {
            double d = fabs(dst[c] - src[c]);
            if (d > best)
                best = d;
        }
        t = src; src = dst; dst = t;
        if (best <= tol) {
            if (src != out)
                memcpy(out, src, sizeof(double) * (size_t)(m * m));
            return s;
        }
    }
    return -1;
}

/* PROGRAM_SOR: k in-place sweeps; north/west read this sweep's
 * values, south/east the previous sweep's. */
void sor(long m, long k, double omega, double *u)
{
    mesh_seed(u, m);
    for (long s = 0; s < k; s++)
        for (long i = 2; i <= m - 1; i++)
            for (long j = 2; j <= m - 1; j++)
                AT(u, m, i, j) = AT(u, m, i, j) + omega *
                    (0.25 * (AT(u, m, i - 1, j) + AT(u, m, i, j - 1)
                             + AT(u, m, i + 1, j) + AT(u, m, i, j + 1))
                     - AT(u, m, i, j));
}

/* PROGRAM_STENCIL_CHAIN: img, then blur/scale/shift/clamp fused into
 * one pass; out is (m-2) x (m-2). */
void stencil_chain(long m, double *img, double *out)
{
    long n = m - 2;
    for (long i = 1; i <= m; i++)
        for (long j = 1; j <= m; j++)
            AT(img, m, i, j) = 0.01 * (double)(i * j);
    for (long i = 1; i <= n; i++)
        for (long j = 1; j <= n; j++) {
            long bi = i + 1, bj = j + 1;
            double blur = 0.2 * (AT(img, m, bi, bj) + AT(img, m, bi - 1, bj)
                                 + AT(img, m, bi + 1, bj)
                                 + AT(img, m, bi, bj - 1)
                                 + AT(img, m, bi, bj + 1));
            double shift = blur * 1.5 + 0.05;
            AT(out, n, i, j) = shift > 0.9 ? 0.9 : shift;
        }
}

/* WAVEFRONT_F (the section 3 example): borders 1.0, each interior cell
 * a convex mix of its N, W and NW neighbours. */
void wavefront_f(long n, double *a)
{
    for (long j = 1; j <= n; j++)
        AT(a, n, 1, j) = 1.0;
    for (long i = 2; i <= n; i++) {
        AT(a, n, i, 1) = 1.0;
        for (long j = 2; j <= n; j++)
            AT(a, n, i, j) = 0.25 * (AT(a, n, i - 1, j) + AT(a, n, i, j - 1))
                             + 0.5 * AT(a, n, i - 1, j - 1);
    }
}

/* PROGRAM_PIPELINE: b = i*i, c = b + 0.5, x a first-order recurrence. */
void pipeline(long n, double *x)
{
    double prev = 0.0;
    for (long i = 1; i <= n; i++) {
        double c = 1.0 * (double)i * (double)i + 0.5;
        prev = (i == 1) ? c : c - 0.25 * prev;
        x[i - 1] = prev;
    }
}
