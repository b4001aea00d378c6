"""RPR013 clean shapes: user-range tags only."""

TAG_HALO = 401
TAG_NEAR_LIMIT = 9_999_999


def exchange(comm):
    yield from comm.send(1, TAG_HALO, b"x")
    data, status = yield from comm.recv(0, TAG_HALO)
    yield from comm.send(1, TAG_NEAR_LIMIT, b"y")
    more, status = yield from comm.recv(0, TAG_NEAR_LIMIT)
    return data, more
