"""Live-protocol sender for the live-tcp workload: one process, one connection at a time.

Usage: python3 bench/sender.py WIRE_FILE

Loads the pre-rendered wire bytes once and prints ``ready``. Then, for each
port number read from standard input, it connects to 127.0.0.1:<port>,
writes the whole payload as fast as TCP backpressure allows, and prints
``sent <bytes>``. The receiver closes the connection the moment its alarm
fires, so a reset or broken pipe ends a stream normally. End of input ends
the process. Uses the standard library only, so it starts fast.
"""

import socket
import sys


def stream(port: int, payload: bytes) -> int:
    sent = 0
    view = memoryview(payload)
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        try:
            while sent < len(view):
                sent += conn.send(view[sent:sent + (1 << 20)])
        except (BrokenPipeError, ConnectionResetError):
            pass
    return sent


def main() -> int:
    with open(sys.argv[1], "rb") as fh:
        payload = fh.read()
    print("ready", flush=True)
    for line in sys.stdin:
        port = int(line)
        print(f"sent {stream(port, payload)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
