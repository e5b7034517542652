"""In-memory spans around calls into mswavenet, recorded from the benchmark side.

The package is treated as a black box: a ``Tracer`` replaces public
functions and methods of its modules with timed wrappers for as long as it
is installed, and puts the originals back afterwards.

Two levels exist. The light probe (``Tracer.light``) only marks train-step
boundaries, validation, checkpoint I/O and captures ``predict_physical``
output; it costs a few microseconds per step and stays on in the untraced
run, which takes its step latencies from it. The full trace
(``Tracer.full``) also wraps every autodiff op, the graph layers,
``Network.forward``, ``backward`` and the data layer, and labels each op
with the model layer it belongs to.

A span is ``[name, layer, phase, start, end, parent, op]``: ``parent`` is
the index of the enclosing span (-1 for none) and ``op`` the id shared by
the spans of one operation (a train step, an evaluate call, a forecast).
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from mswavenet import autodiff, data, graph, model, pipeline, synthetic, training
from mswavenet.autodiff import Variable

clock = time.perf_counter

NAME, LAYER, PHASE, START, END, PARENT, OP = range(7)

# floating-point operations (2 per multiply-add) of the forward pass of the
# GEMM-like autodiff ops; the backward pass of each costs twice that, one
# GEMM per operand gradient
_GEMM_FLOP = {
    "conv_time_dilated_causal": lambda x, k, *_: 2
    * _shape(x)[0] * _shape(k)[0] * _shape(k)[1] * _shape(k)[2] * _shape(x)[2] * _shape(x)[3],
    "conv_1x1": lambda x, w, *_: 2
    * _shape(x)[0] * _shape(w)[0] * _shape(w)[1] * _shape(x)[2] * _shape(x)[3],
    "dense": lambda x, w, *_: 2 * _shape(x)[0] * _shape(x)[1] * _shape(w)[0],
    "matmul": lambda a, b, *_: 2 * _shape(a)[0] * _shape(a)[1] * _shape(b)[1],
}
_OPS = (
    "add", "sub", "multiply", "tanh", "sigmoid", "relu", "total", "matmul",
    "conv_time_dilated_causal", "conv_1x1", "concat_channels", "softmax_rows",
    "flatten", "dense", "mse_loss",
)


def _shape(v):
    return v.value.shape if isinstance(v, Variable) else v.shape


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _layer_of_param(name: str) -> str:
    """'block2.tcn_a.branch0.kernel' -> 'block2.tcn_a'; 'head.conv1.weight' -> 'head'."""
    parts = name.split(".")
    if parts[0] == "adjacency":
        return "graph.adjacency"
    if parts[0].startswith("block"):
        return f"{parts[0]}.{parts[1]}"
    return parts[0]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.kinds = {0: "none"}
        self.phase = "setup"
        self.captured = []  # predict_physical outputs, in call order
        self.flop = defaultdict(int)  # op id -> flops of GEMM-like ops
        self.tape = {}  # op id -> (nodes, bytes) of the tape built by backward
        self.minflt_op = {}  # op id -> minor faults inside the operation
        self.minflt_forward = []  # (op id, minor faults) per Network.forward
        self._saved = []
        self.full_on = False
        self._net = None
        self._param_layer = {}
        self._labels = {}  # id(Variable) -> (sequence, layer) for op outputs
        self._seq = 0
        self._context = None
        self._step_minflt = 0

    # -- recording ---------------------------------------------------------

    def new_op(self, kind: str) -> int:
        self.op += 1
        self.kinds[self.op] = kind
        return self.op

    def open(self, name, layer=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, self.phase, clock(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][END] = clock()

    def record(self, name, layer, start, end, phase=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, phase or self.phase, start, end, parent, self.op])

    def _top(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    @contextmanager
    def span(self, name, layer=None, phase=None):
        saved = self.phase
        if phase:
            self.phase = phase
        self.open(name, layer)
        try:
            yield
        finally:
            self.close()
            self.phase = saved

    # -- installing wrappers -----------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    @contextmanager
    def light(self):
        """Step boundaries, validation, checkpoint I/O, forecast capture."""
        mark = len(self._saved)
        self._patch(training, "batch_iter", self._wrap_batch_iter)
        self._patch(training.AdamOptimizer, "step", self._wrap_adam)
        self._patch(training.PlateauScheduler, "step", self._wrap_scheduler)
        self._patch(training.Checkpoint, "save", self._wrap_method("training.checkpoint_save"))
        self._patch(training.Checkpoint, "load", self._wrap_load)
        self._patch(training, "predict_physical", self._wrap_capture)
        self._patch(synthetic, "generate", self._wrap_method("synthetic.generate"))
        try:
            yield self
        finally:
            self._restore_to(mark)

    @contextmanager
    def full(self):
        """Everything: ops with layer labels, backward, graph and data layers."""
        mark = len(self._saved)
        for name in _OPS:
            self._patch(autodiff, name, self._wrap_op(name))
        self._patch(autodiff, "backward", self._wrap_backward)
        self._patch(autodiff, "GradientTape", self._wrap_tape)
        self._patch(graph, "adjacency_softmax", self._wrap_graph("graph.adjacency", None))
        self._patch(graph, "gcn_forward", self._wrap_graph("graph.gcn", 2))
        self._patch(model.Network, "forward", self._wrap_forward)
        self._patch(pipeline, "prepare", self._wrap_method("pipeline.prepare"))
        for module in (data, pipeline):
            for name in ("load_station_csv", "assemble", "make_windows"):
                if hasattr(module, name):
                    self._patch(module, name, self._wrap_method(f"data.{name}"))
        self.full_on = True
        try:
            yield self
        finally:
            self._restore_to(mark)
            self.full_on = False

    def _restore_to(self, mark):
        while len(self._saved) > mark:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- light wrappers ----------------------------------------------------

    def _wrap_batch_iter(self, fn):
        tracer = self

        def batch_iter(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer._step_begin()
                try:
                    item = next(it)
                except StopIteration:
                    tracer._step_abort()
                    return
                yield item

        return batch_iter

    def _step_begin(self):
        self.new_op("step")
        self.phase = "fwd"
        self.open("train.step")
        if self.full_on:
            self._step_minflt = minflt()
            self.open("data.batch_wait")

    def _step_abort(self):
        # the epoch ran out of batches: the step opened for the next batch
        # never happened, and its op id goes to the validation that follows
        while self._top() in ("data.batch_wait", "train.step"):
            self.stack.pop()
            self.spans.pop()
        self.kinds[self.op] = "validation"
        self.phase = "val"
        self.open("training.validation")

    def _wrap_adam(self, fn):
        tracer = self

        def step(optimizer):
            with tracer.span("training.adam"):
                fn(optimizer)
            if tracer._top() == "train.step":
                tracer.close()
                if tracer.full_on:
                    tracer.minflt_op[tracer.op] = minflt() - tracer._step_minflt

        return step

    def _wrap_scheduler(self, fn):
        tracer = self

        def step(scheduler, val_loss):
            if tracer._top() == "training.validation":
                tracer.close()
            tracer.phase = "epoch"
            with tracer.span("training.scheduler"):
                return fn(scheduler, val_loss)

        return step

    def _wrap_method(self, name):
        tracer = self

        def wrapper(fn):
            def method(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)

            return method

        return wrapper

    def _wrap_load(self, bound_load):
        tracer = self

        def load(cls, path):
            with tracer.span("training.checkpoint_load"):
                return bound_load(path)

        return classmethod(load)

    def _wrap_capture(self, fn):
        tracer = self

        def predict_physical(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.captured.append(out)
            return out

        return predict_physical

    # -- full wrappers -----------------------------------------------------

    def _use_net(self, net):
        if net is not self._net:
            self._net = net
            self._param_layer = {id(p): _layer_of_param(n) for n, p in net.parameters()}

    def _wrap_forward(self, fn):
        tracer = self

        def forward(net, x):
            if tracer._top() == "data.batch_wait":
                tracer.close()
            tracer._use_net(net)
            tracer._labels.clear()
            faults = minflt()
            tracer.open("model.forward")
            try:
                return fn(net, x)
            finally:
                tracer.close()
                tracer.minflt_forward.append((tracer.op, minflt() - faults))

        return forward

    def _label(self, name, args):
        latest = None
        for arg in args:
            for v in arg if isinstance(arg, (list, tuple)) else (arg,):
                if not isinstance(v, Variable):
                    continue
                layer = self._param_layer.get(id(v))
                if layer:
                    return layer
                rec = self._labels.get(id(v))
                if rec and (latest is None or rec[0] > latest[0]):
                    latest = rec
        if self._context:
            return self._context
        if latest is None:
            return "other"
        # the head opens with ReLU of the summed skip taps
        if name == "relu" and latest[1].endswith(".skip"):
            return "head"
        return latest[1]

    def _remember(self, out, layer):
        self._seq += 1
        self._labels[id(out)] = (self._seq, layer)

    def _wrap_op(self, name):
        tracer = self
        span_name = f"autodiff.{name}"
        flop_of = _GEMM_FLOP.get(name)

        def wrapper(fn):
            def op(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                t1 = clock()
                layer = tracer._label(name, args)
                tracer.record(span_name, layer, t0, t1)
                tracer._remember(out, layer)
                flop = flop_of(*args) if flop_of else 0
                tracer.flop[tracer.op] += flop
                if out._backward is not None:
                    out._backward = tracer._timed_backward(out._backward, span_name, layer, 2 * flop)
                return out

            return op

        return wrapper

    def _timed_backward(self, fn, name, layer, flop):
        tracer = self

        def backward_fn(g):
            t0 = clock()
            fn(g)
            tracer.record(name, layer, t0, clock(), phase="bwd")
            tracer.flop[tracer.op] += flop

        return backward_fn

    def _wrap_graph(self, name, param_arg):
        """gcn_forward / adjacency_softmax: a span labelled with the layer of
        their parameter; the private ops they build inside get their backward
        timed under the same label."""
        tracer = self

        def wrapper(fn):
            def layer_fn(*args, **kwargs):
                if param_arg is None:
                    layer = "graph.adjacency"
                    node_flop = 0
                else:  # gcn_forward(x, adj, theta, bias): the node mix is adj @ x
                    layer = tracer._param_layer.get(id(args[param_arg]), "other")
                    b, c, n, w = args[0].value.shape
                    node_flop = 2 * b * c * n * n * w
                saved = tracer._context
                tracer._context = layer
                first_seq = tracer._seq
                tracer.open(name, layer)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close()
                    tracer._context = saved
                tracer.flop[tracer.op] += node_flop
                tracer._wrap_inner(out, layer, first_seq, 2 * node_flop)
                return out

            return layer_fn

        return wrapper

    def _wrap_inner(self, out, layer, first_seq, flop):
        """Time the backward of nodes a layer built with private ops: walk
        back from its output to the nodes that existed before it began."""
        root = out.values if hasattr(out, "values") else out
        if id(root) not in self._labels:
            self._remember(root, layer)
        todo = [root]
        while todo:
            for parent in todo.pop().parents:
                rec = self._labels.get(id(parent))
                if rec is None and parent._backward is not None:
                    name = "graph." + parent._backward.__qualname__.split(".")[0]
                    parent._backward = self._timed_backward(parent._backward, name, layer, flop)
                    self._remember(parent, layer)
                    todo.append(parent)
                elif rec is not None and rec[0] > first_seq:
                    todo.append(parent)

    def _wrap_backward(self, fn):
        tracer = self

        def backward(loss):
            saved = tracer.phase
            tracer.phase = "bwd"
            tracer.open("autodiff.backward")
            try:
                fn(loss)
            finally:
                tracer.close()
                tracer.phase = saved

        return backward

    def _wrap_tape(self, cls):
        tracer = self

        def build_tape(root):
            t0 = clock()
            tape = cls(root)
            tracer.record("autodiff.tape_build", None, t0, clock())
            tracer.tape[tracer.op] = (
                len(tape.nodes),
                sum(node.value.nbytes for node in tape.nodes),
            )
            return tape

        return build_tape

    # -- output ------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0 and s[END] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [
            (s[END] - s[START]) - c if s[END] is not None else 0.0
            for s, c in zip(self.spans, child)
        ]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "layer", "phase", "start", "end", "parent", "op"), s
                ))) + "\n")


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0
