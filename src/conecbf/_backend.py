"""The kernel module the package calls.

There is one kernel, the pure Python `conecbf._pykernel`. Callers look
up `kernel.<fn>` at call time rather than binding the functions at
import, so a profiler can swap the module's attributes for timing
wrappers and see every kernel call.
"""

from . import _pykernel as kernel


def kernel_backend() -> str:
    """Name of the kernel backend in use (always 'pure')."""
    return kernel.backend_name


def available_kernels():
    """Every importable kernel module; there is only the one."""
    return [kernel]
