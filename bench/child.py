"""The measured process: one `cmd_synth` or `cmd_eval` call, as a user runs it.

    python3 bench/child.py <checkout root> synth <config> <out dir> <workers>
    python3 bench/child.py <checkout root> eval <predictions> <gold> <report>

Prints one JSON line: the monotonic clock when set-up ended and the measured
call began (`ready`), the call's wall time, the turns scored (eval), and the
largest peak resident set of this process and of its reaped worker
processes, in MB. The clock is CLOCK_MONOTONIC, shared by every process on
the machine, so the parent can subtract the time it started this process.
"""

import sys
import time

root, mode, *rest = sys.argv[1:]
sys.path.insert(0, root + "/src")

import json  # noqa: E402
import resource  # noqa: E402

from tablekit.pipeline import PipelineConfig, cmd_eval, cmd_synth  # noqa: E402

if mode == "synth":
    config_path, out, workers = rest
    config = PipelineConfig.from_file(config_path)
    config.resolve_pool()
    ready = time.monotonic()
    cmd_synth(config, out, workers=int(workers))
    wall = time.monotonic() - ready
    done = None  # samples written: the parent counts the lines of samples.jsonl
else:
    predictions, gold, report = rest
    ready = time.monotonic()
    done = cmd_eval(predictions, gold, report).counts["evaluated"]
    wall = time.monotonic() - ready

rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(json.dumps({"ready": ready, "wall_s": wall, "done": done, "peak_rss_mb": rss_kb / 1024}))
