"""Set-up time of a fresh interpreter: `import dpogl` plus config validation.

Usage: setup_probe.py CONFIG_JSON, with PYTHONPATH pointing at the checkout's
``src``.  Prints one JSON object: the seconds from the clock's start to a
validated ``ExperimentConfig``, the same in reference seconds (calibrate.py,
``python_kernel`` sampled every 10 ms), and where dpogl came from.  Only
``time``, ``sys`` and calibrate.py are imported before the clock starts;
calibrate.py loads nothing beyond ``signal`` that Python has not loaded at
start-up.
"""

import sys
import time

import calibrate

sampler = calibrate.Sampler(calibrate.python_kernel,
                            calibrate.PYTHON_REFERENCE_S, interval_s=0.01)
with sampler:
    start = time.perf_counter()

    import json  # noqa: E402
    from pathlib import Path  # noqa: E402

    import dpogl  # noqa: E402

    config = dpogl.ExperimentConfig.from_dict(
        json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")))
    elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed,
                  "reference_s": sampler.to_reference(elapsed),
                  "samples": len(sampler.samples),
                  "dpogl": dpogl.__file__}))
