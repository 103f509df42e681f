import hashlib

import pytest

from sacreddetect.hashing import sha256_file


@pytest.mark.parametrize("size", [0, 1, 2**20 + 1])
def test_sha256_file_equals_the_digest_of_the_bytes(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(bytes(i % 251 for i in range(size)))
    assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()
