"""Suppression fixture: every hazard carries a disable comment — clean."""

import random
import time

unseeded = random.Random()  # reprolint: disable=DET001
started = time.time()  # reprolint: disable=DET002,DET004
both = (random.Random(), time.time())  # reprolint: disable=DET001,DET002,DET004
anything = random.randint(0, 3)  # reprolint: disable=all
exact = started == 0.5  # reprolint: disable=COR001
