"""RPR011 clean shapes: every tag has both a sender and a receiver."""

TAG_PAIRED = 7
TAG_ALIASED = 11
RENAMED_TAG = TAG_ALIASED


def producer(comm):
    yield from comm.send(1, TAG_PAIRED, b"payload")
    yield from comm.send(1, RENAMED_TAG, b"more")


def consumer(comm):
    data, status = yield from comm.recv(0, TAG_PAIRED)
    more, status = yield from comm.recv(0, TAG_ALIASED)
    return data, more
