"""Stub job for the benchmark's own tests: sleeps for argv[1] seconds."""

import sys
import time

if __name__ == "__main__":
    time.sleep(float(sys.argv[1]))
