(** Dependence analysis over the folded polyhedral DDG: direction /
    distance vectors per common loop prefix, parallelism per loop
    dimension, permutable bands and skewing (the legality core behind the
    feedback of paper §6). *)

type dir = Dzero | Dpos | Dneg | Dnonneg | Dnonpos | Dany

val pp_dir : Format.formatter -> dir -> unit
val dir_can_be_zero : dir -> bool
val dir_can_be_nonzero : dir -> bool
val dir_can_be_negative : dir -> bool
val dir_can_be_positive : dir -> bool

val dir_add : dir -> dir -> dir
(** Sign-interval addition: the abstraction of [a + b].  Used to compose
    direction vectors under affine schedule changes (skewing). *)

val dir_scale : int -> dir -> dir
(** The abstraction of [k * a]. *)

type path = Ddg.Iiv.ctx_id list list
(** A loop-dimension stack prefix: element [i] is the full context stack
    of dimension [i].  Identifies a loop instance in the schedule tree. *)

val is_prefix : path -> path -> bool
(** [is_prefix p l]: the dimensions of [p] are the first ones of [l]
    (each context stack equal, compared without polymorphic equality). *)

type stmt_ext = {
  si : Ddg.Depprof.stmt_info;
  spath : path;  (** the statement's loop dimensions (without the
                     trailing statement context) *)
}

type dep_ext = {
  di : Ddg.Depprof.dep_info;
  dsrc_path : path;  (** source loop dims, resolved at [analyse] time
                         (the raw ctx ids dangle after re-profiling) *)
  ddst_path : path;  (** destination loop dims, same caveat *)
  common : int;  (** length of the common loop prefix of src and dst *)
  dirs : dir array;  (** per common dimension *)
  dists : int option array;  (** constant distance per dim if known *)
  approx : bool;  (** true if any piece had unknown labels *)
}

type loop_info = {
  lpath : path;
  ldepth : int;  (** = List.length lpath *)
  parallel : bool;
  lweight : int;  (** dynamic ops strictly inside this loop *)
  header_loc : Vm.Prog.loc option;
}

type band = { b_from : int; b_to : int; b_skews : (int * int * int) list }
(** Dimensions [b_from..b_to] (1-based, inclusive) of a nest are fully
    permutable, possibly after the recorded skews
    [(outer_dim, inner_dim, factor)]. *)

type nest_info = {
  npath : path;
  ndepth : int;
  nstmts : stmt_ext list;  (** statements exactly at this loop path *)
  nweight : int;  (** ops of [nstmts] *)
  bands : band list;
  nparallel : bool array;  (** per dimension, 1-based as [.(d-1)] *)
}

type t = {
  stmts : stmt_ext list;
  deps : dep_ext list;
  loops : loop_info list;  (** every loop prefix observed, outer first *)
  nests : nest_info list;  (** one per distinct maximal statement path *)
  total_ops : int;
}

val analyse : Vm.Prog.t -> Ddg.Depprof.result -> t

val stmt_path : Ddg.Depprof.stmt_info -> path
val loop_at : t -> path -> loop_info option
val max_band_width : nest_info -> int
val nest_uses_skew : nest_info -> bool

val dep_relevant_to_prefix : dep_ext -> path -> bool
(** Both endpoints of the dependence lie (strictly or not) below the
    given loop prefix. *)

val dep_reduction_like : dep_ext -> bool
(** A same-block register chain: the signature of a scalar reduction,
    privatisable/reassociable, exempt from band/schedule legality (the
    same exemption the band construction applies). *)

val zeros_possible_before : int -> dir array -> bool
(** Can the dependence be loop-independent w.r.t. the first [d - 1]
    dimensions (i.e. is it *not* necessarily carried before dim [d])? *)

val pp : Format.formatter -> t -> unit
