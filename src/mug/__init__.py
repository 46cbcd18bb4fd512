"""Universal self-supervised pre-training on heterogeneous graphs."""

import os

# One BLAS thread, set before NumPy loads: OpenBLAS's sums depend on its thread count.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

__version__ = "0.1.0"
