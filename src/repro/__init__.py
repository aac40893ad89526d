"""repro -- a from-scratch reproduction of nAdroid (CGO 2018).

nAdroid statically detects use-after-free ordering violations in Android
applications by *threadifying* event callbacks (modeling them as threads),
running a Chord-style static race detector over the result, and pruning
false warnings with happens-before filters derived from the Android
concurrency model.

Public entry points:

* :func:`repro.lowering.compile_app` -- MiniDroid source -> IR module
* :func:`repro.core.analyze_app` -- full nAdroid pipeline on an IR module
* :mod:`repro.corpus` -- the 27-app synthetic evaluation corpus
* :mod:`repro.harness` -- drivers that regenerate every paper table/figure
* :mod:`repro.obs` -- span tracing, metrics, and profiling for all of it
"""

__version__ = "1.9.0"
