(** The Bzip2 compression pipeline: RLE1 → block split → BWT → MTF →
    RLE2 → canonical Huffman.

    Every stage is the OCaml counterpart of the bzip2-1.0.6 stage of the
    same name; the container format is this library's own (bzip2's bit-
    exact file format is out of scope, the algorithms are not).  The paper
    uses 10,000-byte blocks when describing the sorting control flow
    (Section VI); that is the default here.

    Two sorters can order a block's rotations.  {!compress} uses the
    comparison-free {!Bwt.sort_rotations_sub}; {!compress_with_info} runs
    the attacker's work model, libbzip2's budgeted
    [mainSort]/[fallbackSort] dispatch in {!Block_sort}.  Both return the
    canonical permutation (lexicographic, ties by start index), so both
    produce the same bytes. *)

type block_info = {
  index : int;  (** block number, 0-based *)
  length : int;  (** bytes of post-RLE1 data in the block *)
  path : Block_sort.path;  (** which sort functions ran, and for how long *)
}

val default_block_size : int
(** 10,000 bytes, per the paper's description. *)

val max_block_size : int
(** 2^24 bytes — the largest post-RLE1 block length the format
    supports.  {!compress} rejects larger [block_size] values;
    {!decompress} rejects headers declaring more (they would let a
    ~50-byte input demand a 4 GiB allocation). *)

val compress : ?block_size:int -> ?jobs:int -> bytes -> bytes
(** [jobs] (default 1) compresses blocks on that many domains; the output
    bytes are identical for every value, blocks being independent.  Does
    not run the Fig. 6 control flow: the bytes equal
    [fst (compress_with_info input)], at a fraction of the cost. *)

val compress_with_info :
  ?block_size:int ->
  ?budget_factor:int ->
  ?jobs:int ->
  bytes ->
  bytes * block_info list
(** The attacker's model: compresses through {!Block_sort.block_sort}
    and reports the per-block sorting control flow — the observable the
    fingerprinting attack of Section VI classifies.  [budget_factor]
    (default {!Block_sort.default_budget_factor}) scales [main_sort]'s
    work budget; it changes the reported paths, never the bytes. *)

val compress_ref : ?block_size:int -> bytes -> bytes
(** Reference implementation of {!compress}: sequential, one whole-block
    [Bytes.sub] per block, fresh allocations in every stage, and the
    work-model sorter.  Slower than {!compress} and not used by
    production code; retained so differential tests can pin the
    zero-copy arena pipeline and its sorter to byte-identical output. *)

val decompress_result : bytes -> (bytes, Codec_error.t) result
(** Safe decoder: truncated or corrupt streams, oversized block headers
    and zero-run bombs are an [Error]; no exception escapes this
    boundary. *)

val decompress : bytes -> bytes
(** [Codec_error.unwrap] of {!decompress_result}.
    @raise Failure on malformed input. *)
