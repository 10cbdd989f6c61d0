"""API001 trips: RunConfig fields drift from the CLI."""

import argparse
from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    jobs: int = 1
    store: str = ""
    retries: int = 0   # BAD: no --retries flag anywhere in this project
    keep_going: bool = False  # BAD: no --keep-going flag either


def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--store", default="")
    return parser
