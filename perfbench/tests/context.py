"""Puts perfbench/ on sys.path so the tests import rpbench."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
