"""Signing an edited KL cache file again, so that tests can reach the
record-level checks that sit behind the checksum.

The trailer is rebuilt from the lines alone, without rscells: a line starts
a new column when its second field names a permutation of the file's degree
that no earlier line named; any other line (blank, malformed, or of an
earlier column) stays in the column before it.
"""

import hashlib
import itertools


def resign(path):
    """Rewrite the ``#end`` trailer of ``path`` to match its lines, and sign
    the file again.

    Every ``#end`` line is dropped first, so records may be appended after
    the old trailer.  The record count is the number of non-blank lines.
    """
    header, *body = [
        line for line in path.read_bytes().splitlines(keepends=True)
        if not line.startswith(b"#end ")
    ]
    n = int(header.split()[2].removeprefix(b"S_"))
    names = {"".join(map(str, w)).encode() for w in itertools.permutations(range(1, n + 1))}
    columns = [[None, len(header)]]
    seen = set()
    offset, records = len(header), 0
    for line in body:
        fields = line.rstrip(b"\n").split(b"\t")
        w = fields[1] if len(fields) > 1 else None
        if w in names and w not in seen:
            seen.add(w)
            if columns[-1][0] is None:
                columns[-1][0] = w
            else:
                columns.append([w, offset])
        records += bool(line.strip())
        offset += len(line)
    listing = ",".join(f"{name.decode()}:{start}" for name, start in columns)
    path.write_bytes(sign(header + b"".join(body) + f"#end {records} {listing} ".encode()))


def sign(unsigned: bytes) -> bytes:
    """A cache file from everything but its sha256: append the digest."""
    return unsigned + hashlib.sha256(unsigned).hexdigest().encode() + b"\n"
