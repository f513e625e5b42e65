from setuptools import Extension, setup

# The compiled kernel is optional: without a C compiler the package installs
# anyway and plactic._kernels falls back to pure Python.
setup(
    ext_modules=[
        Extension("plactic._kernels._speedups", ["src/plactic/_kernels/_speedups.c"], optional=True)
    ]
)
