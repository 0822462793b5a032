"""Artifact digests: byte changes are caught, launch echoes are not."""

import json
import os
import tempfile
import unittest

from tests import context  # noqa: F401
from rpbench import digest


class TreeDigest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        os.makedirs(os.path.join(self.root, "raw"))
        self.write("data.csv", "x,y\n1,2\n")
        self.write("raw/sweep.csv", "t,ac\n36,1000\n")
        self.write("result.json", json.dumps({
            "experiment": "fig06", "datasets": [[1, 2]],
            "config": {"threads": {"value": 2, "origin": "cli"}}}))
        self.expected = digest.tree_digest(self.root)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, text):
        with open(os.path.join(self.root, rel), "w") as f:
            f.write(text)

    def test_untouched_tree_matches(self):
        self.assertTrue(digest.check(self.root, self.expected))

    def test_a_tampered_artifact_is_rejected(self):
        self.write("raw/sweep.csv", "t,ac\n36,1001\n")
        self.assertFalse(digest.check(self.root, self.expected))

    def test_an_extra_or_renamed_file_is_rejected(self):
        self.write("extra.csv", "")
        self.assertFalse(digest.check(self.root, self.expected))
        os.remove(os.path.join(self.root, "extra.csv"))
        os.rename(os.path.join(self.root, "data.csv"),
                  os.path.join(self.root, "data2.csv"))
        self.assertFalse(digest.check(self.root, self.expected))

    def test_result_data_changes_are_rejected(self):
        self.write("result.json", json.dumps({
            "experiment": "fig06", "datasets": [[1, 3]],
            "config": {"threads": {"value": 2, "origin": "cli"}}}))
        self.assertFalse(digest.check(self.root, self.expected))

    def test_the_launch_config_echo_is_ignored(self):
        self.write("result.json", json.dumps({
            "experiment": "fig06", "datasets": [[1, 2]],
            "config": {"threads": {"value": 1, "origin": "request"}}}))
        self.assertTrue(digest.check(self.root, self.expected))

    def test_a_missing_tree_is_rejected(self):
        self.assertFalse(digest.check(os.path.join(self.root, "no"),
                                      self.expected))


if __name__ == "__main__":
    unittest.main()
