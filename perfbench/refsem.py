"""Section-2 reference semantics, written apart from the engine.

A configuration is a plain map from process name to internal state plus
the message buffer as a ``collections.Counter`` of ``(destination,
value)`` pairs.  One step follows the paper literally: ``receive(p)``
removes one copy of the delivered message (or delivers the null marker
and leaves the buffer alone), then ``p``'s transition function runs and
its sends are added to the buffer.  Exploration is plain BFS.  There is
no interning, no codec, no kernel, no store and no reduction: the only
code shared with the program is each automaton's ``Process.step`` and
``Process.initial_data``.
"""

from collections import Counter, deque

#: The output register's "no decision yet" value (``b`` in the paper).
UNDECIDED = None


def initial(protocol, inputs):
    """The initial configuration for an input vector in name order."""
    from repro.core.process import ProcessState

    states = {}
    for name, bit in zip(protocol.process_names, inputs):
        automaton = protocol.process(name)
        states[name] = ProcessState(bit, UNDECIDED, automaton.initial_data(bit))
    return states, Counter()


def key(config):
    """A hashable image of a plain configuration."""
    states, buffer = config
    return (
        tuple(sorted(states.items())),
        frozenset((m, c) for m, c in buffer.items() if c > 0),
    )


def from_engine(configuration):
    """The plain form of a :class:`repro.core.Configuration`."""
    states = dict(configuration.states())
    buffer = Counter()
    for message, count in configuration.buffer.items():
        buffer[(message.destination, message.value)] += count
    return states, buffer


def events(config):
    """Enabled events ``(p, m)``: a null delivery for every process, then
    one delivery per distinct buffered message."""
    states, buffer = config
    enabled = [(name, None) for name in sorted(states)]
    enabled += sorted(
        ((dest, value) for (dest, value), c in buffer.items() if c > 0),
        key=repr,
    )
    return enabled


def step(protocol, config, event):
    """``e(C)`` for ``e = (p, m)``; ``None`` if the message is absent."""
    states, buffer = config
    process, value = event
    buffer = Counter(buffer)
    if value is not None:
        if buffer[(process, value)] <= 0:
            return None
        buffer[(process, value)] -= 1
        if buffer[(process, value)] == 0:
            del buffer[(process, value)]
    new_state, sends = protocol.process(process).step(states[process], value)
    for message in sends:
        buffer[(message.destination, message.value)] += 1
    states = dict(states)
    states[process] = new_state
    return states, buffer


def decisions(config):
    """The decision values present in *config*."""
    return {s.output for s in config[0].values() if s.output is not UNDECIDED}


def bfs_levels(protocol, root, levels):
    """Keys of the configurations first reached at each BFS depth
    ``0 .. levels`` from *root*, and every expanded node's successor keys."""
    seen = {key(root)}
    layer = [root]
    result, successors = [], {}
    for depth in range(levels + 1):
        result.append({key(c) for c in layer})
        if depth == levels:
            break
        following = []
        for config in layer:
            out = set()
            for event in events(config):
                child = step(protocol, config, event)
                child_key = key(child)
                out.add(child_key)
                if child_key not in seen:
                    seen.add(child_key)
                    following.append(child)
            successors[key(config)] = out
        layer = following
    return result, successors


def census(protocol):
    """Valency of every initial configuration, keyed by input vector:
    BFS over the union of all roots' reachable graphs, then reverse
    reachability from the decided configurations of each value."""
    n = protocol.num_processes
    vectors = [tuple((bits >> i) & 1 for i in range(n)) for bits in range(2**n)]
    index, nodes, reverse = {}, [], []
    queue = deque()
    for vector in vectors:
        config = initial(protocol, vector)
        k = key(config)
        if k not in index:
            index[k] = len(nodes)
            nodes.append(config)
            reverse.append([])
            queue.append(config)
    while queue:
        config = queue.popleft()
        source = index[key(config)]
        for event in events(config):
            child = step(protocol, config, event)
            k = key(child)
            if k not in index:
                index[k] = len(nodes)
                nodes.append(child)
                reverse.append([])
                queue.append(child)
            reverse[index[k]].append(source)
    reaches = {}
    for value in (0, 1):
        marked = [value in decisions(c) for c in nodes]
        work = [i for i, m in enumerate(marked) if m]
        while work:
            for parent in reverse[work.pop()]:
                if not marked[parent]:
                    marked[parent] = True
                    work.append(parent)
        reaches[value] = marked
    names = {(True, True): "bivalent", (True, False): "0-valent",
             (False, True): "1-valent", (False, False): "non-deciding"}
    result = {}
    for vector in vectors:
        i = index[key(initial(protocol, vector))]
        result[vector] = names[(reaches[0][i], reaches[1][i])]
    return result, len(nodes)


def replay(protocol, start, schedule):
    """Apply *schedule* to *start*; the list of configurations visited,
    or ``None`` when some event's message is not in the buffer."""
    run = [start]
    for event in schedule:
        nxt = step(protocol, run[-1], (event.process, event.value))
        if nxt is None:
            return None
        run.append(nxt)
    return run
