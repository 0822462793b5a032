"""SHA-256 digests of experiment artifact trees.

An experiment's artifacts are the files `run`/`serve` write under
<out>/<experiment id>/.  Every file's path and bytes are hashed in
path order.  The one exception is the `config` member of result.json:
it echoes how the job was launched (thread count, cache directory,
which layer set each option), not what it computed, so it is dropped
before hashing.  Everything else must match byte for byte.
"""

import hashlib
import json
import os


def _canonical(rel, data):
    if os.path.basename(rel) != "result.json":
        return data
    doc = json.loads(data.decode("utf-8"))
    doc.pop("config", None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def tree_digest(root):
    """Digest of every regular file under root (sorted by path)."""
    files = []
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            files.append(os.path.relpath(path, root).replace(os.sep, "/"))
    if not files:
        raise FileNotFoundError("no artifacts under %s" % root)
    h = hashlib.sha256()
    for rel in sorted(files):
        with open(os.path.join(root, rel), "rb") as f:
            data = _canonical(rel, f.read())
        h.update(rel.encode() + b"\0")
        h.update(b"%d\0" % len(data))
        h.update(data)
    return h.hexdigest()


def check(root, expected):
    """True when the tree at root digests to expected."""
    try:
        return tree_digest(root) == expected
    except (OSError, ValueError):
        return False
