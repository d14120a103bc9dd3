"""Real, executable numerical kernels.

Every benchmark and mini-app in the laboratory is backed by an actual
numerical implementation that runs on the host — the performance *models*
predict what these computations would cost on CTE-Arm and MareNostrum 4,
but correctness (residuals, conservation laws, convergence) is validated by
running the real thing.  Modules:

* :mod:`repro.kernels.fpu` — FMA-stream throughput micro-kernel;
* :mod:`repro.kernels.stream` — STREAM copy/scale/add/triad;
* :mod:`repro.kernels.lu` — blocked LU with partial pivoting (LINPACK);
* :mod:`repro.kernels.gemm` — cache-blocked GEMM;
* :mod:`repro.kernels.cg` — conjugate gradients;
* :mod:`repro.kernels.multigrid` — HPCG: 27-point SpMV, SymGS, V-cycle MG;
* :mod:`repro.kernels.stencil` — structured-grid stencils + halo logic;
* :mod:`repro.kernels.fem` — unstructured FEM assembly (Alya);
* :mod:`repro.kernels.md` — cell-list molecular dynamics (Gromacs);
* :mod:`repro.kernels.spectral` — FFT spectral transforms (OpenIFS).

The package imports none of them: import the submodule you use, so code
that only prices workloads never loads scipy.
"""
