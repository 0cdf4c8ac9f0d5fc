"""Start the sweep server with layer timing installed.

``python3 perfbench/serve_launcher.py <python -m repro.service args>``
wraps the layer entry points (:func:`layers.install` and
:func:`layers.install_service`) and then calls
``repro.service.__main__.main``.  Timing starts disabled; ``run.py``
drives it over stdin, one command a line:

* ``on`` / ``off``: enable or disable the wrappers (and count this
  process's CPU time while enabled);
* ``dump <path>``: write the layer summary to ``<path>`` and the spans
  to ``<path>.spans``, then print ``dumped``.

Scheduler workers the server forks start with timing disabled; their
spans would die with them.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time


def control(tracer, stream):
    cpu = 0.0
    since = None
    for line in stream:
        command, _, arg = line.strip().partition(" ")
        if command == "on" and since is None:
            since = time.process_time()
            tracer.enabled = True
        elif command == "off" and since is not None:
            tracer.enabled = False
            cpu += time.process_time() - since
            since = None
        elif command == "dump":
            with open(arg, "w", encoding="utf-8") as out:
                json.dump({"tracer": tracer.summary(), "cpu_s": cpu}, out)
            tracer.dump(arg + ".spans")
            print("dumped", flush=True)


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from layers import Tracer, install, install_service

    tracer = Tracer()
    install(tracer)
    install_service(tracer)
    os.register_at_fork(
        after_in_child=lambda: setattr(tracer, "enabled", False))
    # Read commands from a duplicate of stdin: a forked scheduler worker
    # closes ``sys.stdin`` on start, which would block forever on the
    # buffer lock this thread holds while it waits for a line.
    commands = os.fdopen(os.dup(sys.stdin.fileno()), encoding="utf-8")
    threading.Thread(target=control, args=(tracer, commands),
                     daemon=True).start()
    from repro.service.__main__ import main as serve
    return serve(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
