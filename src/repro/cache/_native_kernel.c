/* The native access kernel: PartitionedCache.access in C for the builds
 * that keep no rank order (DESIGN.md section 6.1, "Native kernel").
 *
 * A NativeKernel is made from the namespace the Python kernel of the same
 * build was compiled into, and it works on exactly those objects: the
 * LineTable buffers and `where`, the ranking's `_key`, `_part`, `_heaps`
 * and `_seq`, the array's free list, `actual_sizes` and the CacheStats
 * counters.  Nothing is copied or written back, so every Python reader
 * sees current state after every access.  It follows the Python kernel
 * (kept on `__kernel_source__`) statement for statement, folding writes
 * whose intermediate values nothing reads (an eviction's `owner = -1`
 * before the insertion's `owner = part`, and the like).
 *
 * The fast path takes exact ints for the address, the partition (in
 * range) and OPT's next use, and a bool for is_write.  Any other call
 * goes to the Python kernel unchanged, so both kernels accept, refuse and
 * raise alike.  Internal state (counters, sizes, targets, slots) must be
 * ints that fit in 64 bits; keys and heap entries, which come from the
 * caller's next-use values, may be any int.
 *
 * Built by repro/cache/native.py with the interpreter's own sysconfig
 * compiler settings.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#ifndef Py_TPFLAGS_HAVE_VECTORCALL
#define Py_TPFLAGS_HAVE_VECTORCALL _Py_TPFLAGS_HAVE_VECTORCALL
#endif

enum { BUF_TAG, BUF_OWNER, BUF_DIRTY, BUF_PART, NBUFS };

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *python_kernel;    /* the same build's Python kernel */
    PyObject *source;           /* __kernel_source__ */
    PyObject *config_error;     /* repro.errors.ConfigurationError */
    PyObject *cache_dict;       /* cache.__dict__ */
    PyObject *where;            /* LineTable.where: address -> slot */
    PyObject *actual;           /* cache.actual_sizes */
    PyObject *rk_dict;          /* ranking.__dict__ (LRU's _seq) */
    PyObject *rk_key;           /* ranking._key */
    PyObject *st_dict;          /* stats.__dict__, NULL when unsubscribed */
    PyObject *free_list;        /* fully associative: array._free */
    PyObject *heaps;            /* fully associative: ranking._heaps */
    PyObject *reheap;           /* fully associative: ranking._rebuild_heap */
    Py_buffer bufs[NBUFS];      /* tag, owner, dirty, ranking._part */
    int64_t *tag;
    int32_t *owner;
    unsigned char *dirty;
    int32_t *rk_part;
    Py_ssize_t num_lines;
    Py_ssize_t num_partitions;
    Py_ssize_t heap_cap;
    long long st_period;
    uint64_t set_mask;          /* direct-mapped: XOR-fold index */
    int set_bits;
    int opt;                    /* OPT keys (next_use * num_lines + slot) */
} Kernel;

static PyObject *s_accesses, *s_hits, *s_misses, *s_insertions,
    *s_evictions, *s_writebacks, *s_since_sample, *s_samples,
    *s_occupancy_sum, *s_writeback_pending, *s_resident, *s_targets,
    *s_seq, *s_next_use, *s_is_write;

/* -- boxed-int helpers ------------------------------------------------ */

static int
as_i64(PyObject *obj, long long *out)
{
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static PyObject *
dict_get(PyObject *dict, PyObject *key)     /* borrowed */
{
    PyObject *v = PyDict_GetItemWithError(dict, key);
    if (v == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_AttributeError, key);
    return v;
}

static int
dict_set_i64(PyObject *dict, PyObject *key, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc;
    if (v == NULL)
        return -1;
    rc = PyDict_SetItem(dict, key, v);
    Py_DECREF(v);
    return rc;
}

/* dict[key] += delta, for an attribute held in an object's __dict__. */
static int
dict_add(PyObject *dict, PyObject *key, long long delta)
{
    long long v;
    PyObject *old = dict_get(dict, key);
    if (old == NULL || as_i64(old, &v) < 0)
        return -1;
    return dict_set_i64(dict, key, v + delta);
}

static PyObject *
list_item(PyObject *list, Py_ssize_t i)     /* borrowed */
{
    if (!PyList_Check(list)) {
        PyErr_SetString(PyExc_TypeError, "native kernel: expected a list");
        return NULL;
    }
    if (i < 0 || i >= PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    return PyList_GET_ITEM(list, i);
}

/* list[i] = value; steals the reference to value. */
static int
list_put(PyObject *list, Py_ssize_t i, PyObject *value)
{
    PyObject *old;
    if (value == NULL)
        return -1;
    old = list_item(list, i);
    if (old == NULL) {
        Py_DECREF(value);
        return -1;
    }
    PyList_SET_ITEM(list, i, value);
    Py_DECREF(old);
    return 0;
}

static int
list_i64(PyObject *list, Py_ssize_t i, long long *out)
{
    PyObject *v = list_item(list, i);
    return v == NULL ? -1 : as_i64(v, out);
}

/* list[i] += delta */
static int
list_add(PyObject *list, Py_ssize_t i, long long delta)
{
    long long v;
    if (list_i64(list, i, &v) < 0)
        return -1;
    return list_put(list, i, PyLong_FromLongLong(v + delta));
}

/* a * mul + add for an int object a, as Python computes it. */
static PyObject *
scaled(PyObject *a, Py_ssize_t mul, Py_ssize_t add)
{
    int overflow;
    long long x = PyLong_AsLongLongAndOverflow(a, &overflow), r;
    PyObject *m, *prod, *s, *sum;
    if (x == -1 && PyErr_Occurred())
        return NULL;
    if (!overflow && !__builtin_mul_overflow(x, (long long)mul, &r)
            && !__builtin_add_overflow(r, (long long)add, &r))
        return PyLong_FromLongLong(r);
    if ((m = PyLong_FromSsize_t(mul)) == NULL)
        return NULL;
    prod = PyNumber_Multiply(a, m);
    Py_DECREF(m);
    if (prod == NULL || (s = PyLong_FromSsize_t(add)) == NULL) {
        Py_XDECREF(prod);
        return NULL;
    }
    sum = PyNumber_Add(prod, s);
    Py_DECREF(prod);
    Py_DECREF(s);
    return sum;
}

/* a < b for two heap entries (ints), -1 on error. */
static int
less(PyObject *a, PyObject *b)
{
    if (PyLong_CheckExact(a) && PyLong_CheckExact(b)) {
        int oa, ob;
        long long x = PyLong_AsLongLongAndOverflow(a, &oa);
        long long y = PyLong_AsLongLongAndOverflow(b, &ob);
        if (!oa && !ob)
            return x < y;
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* -- heapq's heappush and heappop, move for move ------------------------
 * The same sift order as Modules/_heapqmodule.c, so the heap lists come
 * out element for element as heapq leaves them. */

static int
sift_down(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject **arr = PySequence_Fast_ITEMS(heap);
    PyObject *newitem = arr[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = arr[parentpos];
        int cmp = less(newitem, parent);
        if (cmp < 0)
            return -1;
        if (cmp == 0)
            break;
        arr[parentpos] = newitem;
        arr[pos] = parent;
        pos = parentpos;
    }
    return 0;
}

static int
sift_up(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap), startpos = pos;
    Py_ssize_t limit = endpos >> 1;
    PyObject **arr = PySequence_Fast_ITEMS(heap);
    while (pos < limit) {
        Py_ssize_t childpos = 2 * pos + 1;
        PyObject *tmp;
        if (childpos + 1 < endpos) {
            int cmp = less(arr[childpos], arr[childpos + 1]);
            if (cmp < 0)
                return -1;
            childpos += cmp ^ 1;
        }
        tmp = arr[childpos];
        arr[childpos] = arr[pos];
        arr[pos] = tmp;
        pos = childpos;
    }
    return sift_down(heap, startpos, pos);
}

/* heappush(heap, item); steals the reference to item. */
static int
heap_push(PyObject *heap, PyObject *item)
{
    int rc;
    if (item == NULL)
        return -1;
    if (!PyList_Check(heap)) {
        Py_DECREF(item);
        PyErr_SetString(PyExc_TypeError, "heap argument must be a list");
        return -1;
    }
    rc = PyList_Append(heap, item);
    Py_DECREF(item);
    if (rc < 0)
        return -1;
    return sift_down(heap, 0, PyList_GET_SIZE(heap) - 1);
}

static PyObject *
heap_pop(PyObject *heap)        /* new reference */
{
    Py_ssize_t n;
    PyObject *last, *top;
    if (!PyList_Check(heap)) {
        PyErr_SetString(PyExc_TypeError, "heap argument must be a list");
        return NULL;
    }
    n = PyList_GET_SIZE(heap);
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return NULL;
    }
    last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    top = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);
    if (sift_up(heap, 0) < 0) {
        Py_DECREF(top);
        return NULL;
    }
    return top;
}

/* -- the kernel --------------------------------------------------------- */

/* The ranking's hit/insert hook: a new key for `slot` (LRU: _seq + 1;
 * OPT: next_use * num_lines + slot), written to _key, plus under
 * "extreme" upkeep the push of its heap entry (LRU: key * num_lines +
 * slot; OPT: -key) and the rebuild of a heap that outgrew heap_cap. */
static int
rank_touch(Kernel *k, Py_ssize_t slot, Py_ssize_t part, PyObject *next_use)
{
    PyObject *key, *heap;
    if (k->opt) {
        key = scaled(next_use, k->num_lines, slot);
        if (key == NULL)
            return -1;
    }
    else {
        long long seq;
        PyObject *old = dict_get(k->rk_dict, s_seq);
        if (old == NULL || as_i64(old, &seq) < 0)
            return -1;
        key = PyLong_FromLongLong(seq + 1);
        if (key == NULL)
            return -1;
        if (PyDict_SetItem(k->rk_dict, s_seq, key) < 0) {
            Py_DECREF(key);
            return -1;
        }
    }
    Py_INCREF(key);
    if (list_put(k->rk_key, slot, key) < 0) {
        Py_DECREF(key);
        return -1;
    }
    if (k->heaps == NULL) {
        Py_DECREF(key);
        return 0;
    }
    heap = list_item(k->heaps, part);
    if (heap == NULL || heap_push(heap, k->opt ? PyNumber_Negative(key)
                                  : scaled(key, k->num_lines, slot)) < 0) {
        Py_DECREF(key);
        return -1;
    }
    Py_DECREF(key);
    if (PyList_GET_SIZE(heap) > k->heap_cap) {
        PyObject *p = PyLong_FromSsize_t(part), *r;
        if (p == NULL)
            return -1;
        r = PyObject_CallOneArg(k->reheap, p);
        Py_DECREF(p);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return 0;
}

/* CacheStats.record_access inlined: the access and hit/miss counters and
 * the periodic occupancy sample. */
static int
record_access(Kernel *k, PyObject *counter, Py_ssize_t part)
{
    PyObject *st = k->st_dict, *list, *old;
    long long n;
    if (dict_add(st, s_accesses, 1) < 0
            || (list = dict_get(st, counter)) == NULL
            || list_add(list, part, 1) < 0
            || (old = dict_get(st, s_since_sample)) == NULL
            || as_i64(old, &n) < 0)
        return -1;
    n += 1;
    if (n < k->st_period)
        return dict_set_i64(st, s_since_sample, n);
    if (dict_set_i64(st, s_since_sample, 0) < 0
            || dict_add(st, s_samples, 1) < 0
            || (list = dict_get(st, s_occupancy_sum)) == NULL)
        return -1;
    for (Py_ssize_t p = 0; p < k->num_partitions; p++) {
        long long size;
        if (list_i64(k->actual, p, &size) < 0 || list_add(list, p, size) < 0)
            return -1;
    }
    return 0;
}

/* The key and slot a heap entry names: divmod(entry, num_lines) for LRU,
 * and key = -entry, slot = key % num_lines for OPT.  Returns the key. */
static PyObject *
entry_key(Kernel *k, PyObject *entry, Py_ssize_t *slot)
{
    int overflow;
    long long e = PyLong_AsLongLongAndOverflow(entry, &overflow);
    PyObject *n, *value, *pair, *key = NULL;
    if (e == -1 && PyErr_Occurred())
        return NULL;
    if (!overflow && (!k->opt || e != LLONG_MIN)) {
        long long v = k->opt ? -e : e, r = v % k->num_lines;
        if (r < 0)
            r += k->num_lines;
        *slot = (Py_ssize_t)r;
        return PyLong_FromLongLong(k->opt ? v : (v - r) / k->num_lines);
    }
    if ((n = PyLong_FromSsize_t(k->num_lines)) == NULL)
        return NULL;
    value = k->opt ? PyNumber_Negative(entry) : (Py_INCREF(entry), entry);
    pair = value != NULL ? PyNumber_Divmod(value, n) : NULL;
    Py_DECREF(n);
    if (pair != NULL) {
        *slot = PyLong_AsSsize_t(PyTuple_GET_ITEM(pair, 1));
        if (!(*slot == -1 && PyErr_Occurred())) {
            key = k->opt ? value : PyTuple_GET_ITEM(pair, 0);
            Py_INCREF(key);
        }
        Py_DECREF(pair);
    }
    Py_XDECREF(value);
    return key;
}

/* FullAssocScheme's victim: the most futile line of the most oversized
 * non-empty partition, popped from that partition's lazy heap past the
 * entries a hit or an eviction left behind. */
static Py_ssize_t
heap_victim(Kernel *k)
{
    PyObject *targets = dict_get(k->cache_dict, s_targets), *heap;
    Py_ssize_t bp = -1;
    long long bo = 0;
    if (targets == NULL)
        return -1;
    for (Py_ssize_t p = 0; p < k->num_partitions; p++) {
        long long size, target;
        if (list_i64(k->actual, p, &size) < 0)
            return -1;
        if (size == 0)
            continue;
        if (list_i64(targets, p, &target) < 0)
            return -1;
        if (bp < 0 || size - target > bo) {
            bo = size - target;
            bp = p;
        }
    }
    if (bp < 0) {
        PyErr_SetString(PyExc_IndexError, "no partition to evict from");
        return -1;
    }
    if ((heap = list_item(k->heaps, bp)) == NULL)
        return -1;
    for (;;) {
        PyObject *entry = heap_pop(heap), *key, *cur;
        Py_ssize_t victim = -1;
        int live;
        if (entry == NULL)
            return -1;
        key = entry_key(k, entry, &victim);
        Py_DECREF(entry);
        if (key == NULL)
            return -1;
        if ((cur = list_item(k->rk_key, victim)) == NULL) {
            Py_DECREF(key);
            return -1;
        }
        live = PyObject_RichCompareBool(cur, key, Py_EQ);
        Py_DECREF(key);
        if (live < 0)
            return -1;
        if (live && k->rk_part[victim] == bp)
            return victim;
    }
}

static PyObject *
kernel_call(PyObject *self, PyObject *const *args, size_t nargsf,
            PyObject *kwnames)
{
    Kernel *k = (Kernel *)self;
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf), part, victim, vpart = -1;
    PyObject *addr_obj, *next_use = Py_None, *is_write_obj = Py_False;
    PyObject *idx_obj, *slot;
    long long addr, p;
    int overflow, is_write, evicted, was_dirty = 0;

    if (k->where == NULL) {
        PyErr_SetString(PyExc_ReferenceError, "native kernel was cleared");
        return NULL;
    }
    if (nargs < 2 || nargs > 3)
        goto python;
    if (nargs == 3)
        next_use = args[2];
    if (kwnames != NULL) {
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            if (name == s_is_write)
                is_write_obj = args[nargs + i];
            else if (name == s_next_use && nargs == 2)
                next_use = args[nargs + i];
            else
                goto python;
        }
    }
    addr_obj = args[0];
    if (!PyLong_CheckExact(addr_obj) || !PyLong_CheckExact(args[1])
            || (k->opt && !PyLong_CheckExact(next_use)))
        goto python;
    p = PyLong_AsLongLongAndOverflow(args[1], &overflow);
    if (overflow || p < 0 || p >= k->num_partitions)
        goto python;
    part = (Py_ssize_t)p;
    if (is_write_obj == Py_True)
        is_write = 1;
    else if (is_write_obj == Py_False)
        is_write = 0;
    else
        goto python;

    idx_obj = PyDict_GetItemWithError(k->where, addr_obj);
    if (idx_obj != NULL) {
        Py_ssize_t idx = PyLong_AsSsize_t(idx_obj);
        if (idx == -1 && PyErr_Occurred())
            return NULL;
        if (idx < 0 || idx >= k->num_lines) {
            PyErr_SetString(PyExc_IndexError, "array index out of range");
            return NULL;
        }
        if (k->owner[idx] != part) {
            PyErr_Format(k->config_error,
                         "address %S is resident in partition %d, not %zd: "
                         "partitions must not share addresses",
                         addr_obj, (int)k->owner[idx], part);
            return NULL;
        }
        if (rank_touch(k, idx, part, next_use) < 0)
            return NULL;
        if (is_write)
            k->dirty[idx] = 1;
        if (k->st_dict != NULL && record_access(k, s_hits, part) < 0)
            return NULL;
        Py_RETURN_TRUE;
    }
    if (PyErr_Occurred())
        return NULL;

    addr = PyLong_AsLongLongAndOverflow(addr_obj, &overflow);
    if (overflow || addr < 0) {
        PyErr_Format(k->config_error,
                     "addresses must be in [0, 2**63), got %S", addr_obj);
        return NULL;
    }
    if (k->st_dict != NULL && record_access(k, s_misses, part) < 0)
        return NULL;
    if (k->free_list != NULL) {
        Py_ssize_t nfree = PyList_GET_SIZE(k->free_list);
        if (nfree > 0) {
            victim = PyLong_AsSsize_t(PyList_GET_ITEM(k->free_list,
                                                      nfree - 1));
            if (victim == -1 && PyErr_Occurred())
                return NULL;
        }
        else if ((victim = heap_victim(k)) < 0)
            return NULL;
    }
    else {
        uint64_t a = (uint64_t)addr, folded = 0;
        while (a) {
            folded ^= a & k->set_mask;
            a >>= k->set_bits;
        }
        victim = (Py_ssize_t)folded;
    }
    if (victim < 0 || victim >= k->num_lines) {
        PyErr_SetString(PyExc_IndexError, "array index out of range");
        return NULL;
    }

    evicted = k->tag[victim] != -1;
    if (evicted) {
        PyObject *victim_addr = PyLong_FromLongLong(k->tag[victim]);
        int rc;
        vpart = k->owner[victim];
        was_dirty = k->dirty[victim] != 0;
        if (victim_addr == NULL)
            return NULL;
        rc = PyDict_DelItem(k->where, victim_addr);
        Py_DECREF(victim_addr);
        if (rc < 0)
            return NULL;
    }
    if (PyDict_SetItem(k->cache_dict, s_writeback_pending,
                       was_dirty ? Py_True : Py_False) < 0)
        return NULL;
    if (evicted && k->st_dict != NULL) {
        PyObject *list = dict_get(k->st_dict, s_evictions);
        if (list == NULL || list_add(list, vpart, 1) < 0)
            return NULL;
        if (was_dirty && ((list = dict_get(k->st_dict, s_writebacks)) == NULL
                          || list_add(list, vpart, 1) < 0))
            return NULL;
    }

    k->tag[victim] = addr;
    if ((slot = PyLong_FromSsize_t(victim)) == NULL)
        return NULL;
    if (PyDict_SetItem(k->where, addr_obj, slot) < 0) {
        Py_DECREF(slot);
        return NULL;
    }
    Py_DECREF(slot);
    if (k->free_list != NULL && !evicted) {
        /* FullyAssociativeArray.place: the free slot, the list's last
         * entry, leaves it.  (An eviction's append and this pop cancel
         * out, and a slot taken from the heap was resident.) */
        Py_ssize_t nfree = PyList_GET_SIZE(k->free_list);
        if (PyList_SetSlice(k->free_list, nfree - 1, nfree, NULL) < 0)
            return NULL;
    }
    k->owner[victim] = (int32_t)part;
    if (!evicted || vpart != part) {
        if ((evicted && list_add(k->actual, vpart, -1) < 0)
                || list_add(k->actual, part, 1) < 0
                || (!evicted && dict_add(k->cache_dict, s_resident, 1) < 0))
            return NULL;
    }
    k->dirty[victim] = (unsigned char)is_write;
    k->rk_part[victim] = (int32_t)part;
    if (rank_touch(k, victim, part, next_use) < 0)
        return NULL;
    if (k->st_dict != NULL) {
        PyObject *list = dict_get(k->st_dict, s_insertions);
        if (list == NULL || list_add(list, part, 1) < 0)
            return NULL;
    }
    Py_RETURN_FALSE;

python:
    return PyObject_Vectorcall(k->python_kernel, args, nargsf, kwnames);
}

/* -- construction and the cyclic GC ------------------------------------- */

static PyObject *
ns_get(PyObject *ns, const char *name)      /* new reference */
{
    PyObject *v = PyDict_GetItemString(ns, name);
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "kernel namespace lacks %s", name);
        return NULL;
    }
    Py_INCREF(v);
    return v;
}

static PyObject *
ns_dict_of(PyObject *ns, const char *name)
{
    PyObject *obj = ns_get(ns, name), *dict;
    if (obj == NULL)
        return NULL;
    dict = PyObject_GetAttrString(obj, "__dict__");
    Py_DECREF(obj);
    if (dict != NULL && !PyDict_CheckExact(dict)) {
        Py_DECREF(dict);
        PyErr_Format(PyExc_TypeError, "%s.__dict__ is not a dict", name);
        return NULL;
    }
    return dict;
}

static int
ns_ssize(PyObject *ns, const char *name, Py_ssize_t *out)
{
    PyObject *v = ns_get(ns, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsSsize_t(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static void *
ns_buffer(Kernel *k, PyObject *ns, int which, const char *name,
          const char *format, Py_ssize_t itemsize)
{
    Py_buffer *view = &k->bufs[which];
    PyObject *obj = ns_get(ns, name);
    int rc;
    if (obj == NULL)
        return NULL;
    rc = PyObject_GetBuffer(obj, view, PyBUF_WRITABLE | PyBUF_FORMAT);
    Py_DECREF(obj);
    if (rc < 0)
        return NULL;
    if (view->itemsize != itemsize || view->format == NULL
            || strcmp(view->format, format) != 0
            || view->len != k->num_lines * itemsize) {
        PyErr_Format(PyExc_TypeError, "%s must be %zd %s items", name,
                     k->num_lines, format);
        return NULL;
    }
    return view->buf;
}

static int
kernel_traverse(Kernel *k, visitproc visit, void *arg)
{
    Py_VISIT(k->python_kernel);
    Py_VISIT(k->source);
    Py_VISIT(k->config_error);
    Py_VISIT(k->cache_dict);
    Py_VISIT(k->where);
    Py_VISIT(k->actual);
    Py_VISIT(k->rk_dict);
    Py_VISIT(k->rk_key);
    Py_VISIT(k->st_dict);
    Py_VISIT(k->free_list);
    Py_VISIT(k->heaps);
    Py_VISIT(k->reheap);
    for (int i = 0; i < NBUFS; i++)
        Py_VISIT(k->bufs[i].obj);
    return 0;
}

static int
kernel_clear(Kernel *k)
{
    Py_CLEAR(k->python_kernel);
    Py_CLEAR(k->source);
    Py_CLEAR(k->config_error);
    Py_CLEAR(k->cache_dict);
    Py_CLEAR(k->where);
    Py_CLEAR(k->actual);
    Py_CLEAR(k->rk_dict);
    Py_CLEAR(k->rk_key);
    Py_CLEAR(k->st_dict);
    Py_CLEAR(k->free_list);
    Py_CLEAR(k->heaps);
    Py_CLEAR(k->reheap);
    for (int i = 0; i < NBUFS; i++) {
        if (k->bufs[i].obj != NULL)
            PyBuffer_Release(&k->bufs[i]);
    }
    k->tag = NULL;
    k->owner = NULL;
    k->dirty = NULL;
    k->rk_part = NULL;
    return 0;
}

static void
kernel_dealloc(Kernel *k)
{
    PyObject_GC_UnTrack(k);
    kernel_clear(k);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

/* NativeKernel(python_kernel, source, ns, opt): ns is the namespace the
 * Python kernel was compiled into, opt whether the ranking is OPT. */
static PyObject *
kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *python_kernel, *source, *ns, *mask;
    int opt;
    Kernel *k;
    Py_ssize_t bits;
    if (!PyArg_ParseTuple(args, "OUO!p:NativeKernel", &python_kernel,
                          &source, &PyDict_Type, &ns, &opt))
        return NULL;
    k = (Kernel *)type->tp_alloc(type, 0);
    if (k == NULL)
        return NULL;
    k->vectorcall = kernel_call;
    k->opt = opt;
    Py_INCREF(python_kernel);
    k->python_kernel = python_kernel;
    Py_INCREF(source);
    k->source = source;
    if ((k->config_error = ns_get(ns, "ConfigurationError")) == NULL
            || (k->cache_dict = ns_dict_of(ns, "cache")) == NULL
            || (k->where = ns_get(ns, "where")) == NULL
            || (k->actual = ns_get(ns, "actual")) == NULL
            || (k->rk_dict = ns_dict_of(ns, "rk")) == NULL
            || (k->rk_key = ns_get(ns, "rk_key")) == NULL
            || ns_ssize(ns, "num_partitions", &k->num_partitions) < 0)
        goto fail;
    if (!PyDict_CheckExact(k->where) || !PyList_CheckExact(k->actual)
            || !PyList_CheckExact(k->rk_key)) {
        PyErr_SetString(PyExc_TypeError,
                        "where must be a dict, actual and rk_key lists");
        goto fail;
    }
    k->num_lines = PyList_GET_SIZE(k->rk_key);
    if ((k->tag = ns_buffer(k, ns, BUF_TAG, "tag", "q", 8)) == NULL
            || (k->owner = ns_buffer(k, ns, BUF_OWNER, "owner", "i", 4)) == NULL
            || (k->dirty = ns_buffer(k, ns, BUF_DIRTY, "dirty", "B", 1)) == NULL
            || (k->rk_part = ns_buffer(k, ns, BUF_PART, "rk_part", "i", 4))
            == NULL)
        goto fail;
    if (PyDict_GetItemString(ns, "st") != NULL) {
        Py_ssize_t period;
        if ((k->st_dict = ns_dict_of(ns, "st")) == NULL
                || ns_ssize(ns, "st_period", &period) < 0)
            goto fail;
        k->st_period = period;
    }
    if (PyDict_GetItemString(ns, "a_free") != NULL) {
        if ((k->free_list = ns_get(ns, "a_free")) == NULL
                || (k->heaps = ns_get(ns, "rk_heaps")) == NULL
                || (k->reheap = ns_get(ns, "rk_reheap")) == NULL
                || ns_ssize(ns, "heap_cap", &k->heap_cap) < 0)
            goto fail;
        if (!PyList_CheckExact(k->free_list) || !PyList_CheckExact(k->heaps)
                || PyList_GET_SIZE(k->heaps) != k->num_partitions) {
            PyErr_SetString(PyExc_TypeError,
                            "a_free and rk_heaps must be lists");
            goto fail;
        }
        return (PyObject *)k;
    }
    if ((mask = ns_get(ns, "set_mask")) == NULL)
        goto fail;
    k->set_mask = (uint64_t)PyLong_AsUnsignedLongLong(mask);
    Py_DECREF(mask);
    if (PyErr_Occurred() || ns_ssize(ns, "set_bits", &bits) < 0)
        goto fail;
    if (bits <= 0 || bits >= 64) {
        PyErr_SetString(PyExc_ValueError, "set_bits must be in [1, 63]");
        goto fail;
    }
    k->set_bits = (int)bits;
    return (PyObject *)k;

fail:
    Py_DECREF(k);
    return NULL;
}

/* A read-only object attribute; closure is the field's offset. */
static PyObject *
get_field(Kernel *k, void *closure)
{
    PyObject *v = *(PyObject **)((char *)k + (size_t)closure);
    v = v != NULL ? v : Py_None;
    Py_INCREF(v);
    return v;
}

static PyGetSetDef kernel_getset[] = {
    {"__kernel_source__", (getter)get_field, NULL,
     "The kernel's name and C source hash, then the Python kernel's source.",
     (void *)offsetof(Kernel, source)},
    {"python_kernel", (getter)get_field, NULL,
     "The Python kernel of the same build (the reference).",
     (void *)offsetof(Kernel, python_kernel)},
    {NULL}
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cache._native_kernel.NativeKernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)kernel_dealloc,
    .tp_free = PyObject_GC_Del,
    .tp_vectorcall_offset = offsetof(Kernel, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "access(addr, part, next_use=None, *, is_write=False) in C, "
              "on the objects of a PartitionedCache's Python kernel.",
    .tp_traverse = (traverseproc)kernel_traverse,
    .tp_clear = (inquiry)kernel_clear,
    .tp_getset = kernel_getset,
    .tp_new = kernel_new,
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native_kernel",
    .m_doc = "The native access kernel (see repro.cache.native).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__native_kernel(void)
{
    PyObject *m;
    struct { PyObject **slot; const char *name; } names[] = {
        {&s_accesses, "accesses"}, {&s_hits, "hits"}, {&s_misses, "misses"},
        {&s_insertions, "insertions"}, {&s_evictions, "evictions"},
        {&s_writebacks, "writebacks"},
        {&s_since_sample, "_since_occupancy_sample"},
        {&s_samples, "_occupancy_samples"},
        {&s_occupancy_sum, "_occupancy_sum"},
        {&s_writeback_pending, "writeback_pending"},
        {&s_resident, "_resident"}, {&s_targets, "targets"},
        {&s_seq, "_seq"}, {&s_next_use, "next_use"},
        {&s_is_write, "is_write"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        if ((*names[i].slot = PyUnicode_InternFromString(names[i].name))
                == NULL)
            return NULL;
    }
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    if ((m = PyModule_Create(&module_def)) == NULL)
        return NULL;
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(m, "NativeKernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(&KernelType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
